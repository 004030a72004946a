package server

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/motion"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/transport"
)

// lossyShaper adapts a netem loss model to the transport.Shaper interface,
// the injected-loss stand-in for a lossy Wi-Fi link.
type lossyShaper struct{ l *netem.LossModel }

func (s lossyShaper) Admit(int, time.Time) time.Duration { return 0 }
func (s lossyShaper) Drop() bool                         { return s.l.Drop() }

// TestServerObservabilityUnderInjectedLoss runs a real client against a
// server whose transmit path drops packets, and checks the full NACK/ACK
// accounting chain: shaper drops -> client NACKs -> server retransmits, all
// visible through the metrics registry and the flight recorder.
func TestServerObservabilityUnderInjectedLoss(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(obs.RecorderOptions{RingSize: 64})

	cfg := DefaultConfig(core.NewSolverAllocator())
	cfg.SlotDuration = 5 * time.Millisecond
	cfg.BudgetMbps = 300
	cfg.RetransmitOnNack = true
	cfg.Metrics = reg
	cfg.Recorder = rec
	cfg.ShaperFor = func(user uint32) transport.Shaper {
		return lossyShaper{netem.NewLossModel(0.25, int64(user)+1)}
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ccfg := client.DefaultConfig(3, srv.ControlAddr(),
		motion.Generate(motion.Scenes()[0], 3, 400, 200, 7))
	ccfg.SlotDuration = cfg.SlotDuration
	ccfg.Slots = 150
	ccfg.NackLost = true
	res, err := client.Run(ccfg)
	if err != nil {
		t.Fatal(err)
	}

	counter := func(name string) uint64 { return reg.Counter(name).Value() }
	if counter("collabvr_server_sessions_joined_total") != 1 {
		t.Errorf("sessions joined = %d", counter("collabvr_server_sessions_joined_total"))
	}
	if counter("collabvr_server_slots_total") == 0 {
		t.Error("no slots counted")
	}
	if counter("collabvr_server_tiles_sent_total") == 0 ||
		counter("collabvr_server_tx_packets_total") == 0 {
		t.Error("no transmit activity counted")
	}
	if counter("collabvr_server_acks_total") == 0 {
		t.Error("no ACKs counted")
	}
	// The 25% loss shaper must have dropped packets, the client must have
	// noticed (incomplete tiles -> NACKs), and the server must have
	// retransmitted.
	if counter("collabvr_server_tx_dropped_total") == 0 {
		t.Error("loss shaper dropped nothing")
	}
	if res.Nacks == 0 {
		t.Fatal("client sent no NACKs under 25% loss")
	}
	// The client's last NACK may still be in flight when Run returns; give
	// the server a moment to drain before comparing counts.
	deadline := time.Now().Add(2 * time.Second)
	for counter("collabvr_server_nack_tiles_total") != uint64(res.Nacks) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := counter("collabvr_server_nack_tiles_total"); got != uint64(res.Nacks) {
		t.Errorf("server counted %d NACKed tiles, client sent %d", got, res.Nacks)
	}
	if counter("collabvr_server_nacks_total") == 0 ||
		counter("collabvr_server_retransmit_tiles_total") == 0 {
		t.Errorf("retransmission chain not counted: nacks=%d retransmits=%d",
			counter("collabvr_server_nacks_total"),
			counter("collabvr_server_retransmit_tiles_total"))
	}

	// The retransmit counter must agree with the per-user Stats view — as
	// long as the session is still live. The server retires departed
	// sessions (dropping their Stats entry), and the client has already
	// exited, so only compare while the session is visible.
	for {
		stats := srv.Stats()
		if len(stats) == 0 {
			break // session retired; the Stats view is gone
		}
		var statRetransmits int
		for _, st := range stats {
			statRetransmits += st.Retransmits
		}
		got := counter("collabvr_server_retransmit_tiles_total")
		if got == uint64(statRetransmits) {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("retransmit counter = %d, Stats = %d", got, statRetransmits)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Flight recorder: every record explains a dvgreedy decision.
	if rec.Records() == 0 {
		t.Fatal("recorder captured no slots")
	}
	for _, r := range rec.Recent(8) {
		if r.Algorithm != "dvgreedy" || len(r.Levels) != 1 {
			t.Errorf("record = %+v", r)
		}
		if r.Branch != "density" && r.Branch != "value" {
			t.Errorf("record branch = %q", r.Branch)
		}
		if r.BudgetMbps != cfg.BudgetMbps || r.Utilization < 0 || r.Utilization > 1+1e-9 {
			t.Errorf("record budget fields = %+v", r)
		}
	}

	// Exposition: the registry serves the counters in Prometheus text form.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"collabvr_server_slots_total",
		"collabvr_server_retransmit_tiles_total",
		"collabvr_server_cap_estimate_rel_error_bucket",
		"collabvr_server_slot_decision_ms_count",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestClientMetricsUnderInjectedLoss checks the client-side counters: lost
// fragments surface as incomplete-tile drops and NACKs.
func TestClientMetricsUnderInjectedLoss(t *testing.T) {
	cfg := DefaultConfig(core.NewSolverAllocator())
	cfg.SlotDuration = 5 * time.Millisecond
	cfg.BudgetMbps = 300
	cfg.RetransmitOnNack = true
	cfg.ShaperFor = func(user uint32) transport.Shaper {
		return lossyShaper{netem.NewLossModel(0.25, 11)}
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	creg := obs.NewRegistry()
	ccfg := client.DefaultConfig(4, srv.ControlAddr(),
		motion.Generate(motion.Scenes()[0], 4, 400, 200, 7))
	ccfg.SlotDuration = cfg.SlotDuration
	ccfg.Slots = 150
	ccfg.NackLost = true
	ccfg.Metrics = creg
	res, err := client.Run(ccfg)
	if err != nil {
		t.Fatal(err)
	}

	counter := func(name string) uint64 { return creg.Counter(name).Value() }
	if got := counter("collabvr_client_tiles_received_total"); got != uint64(res.Tiles) {
		t.Errorf("tile counter = %d, result = %d", got, res.Tiles)
	}
	if got := counter("collabvr_client_bytes_received_total"); got != uint64(res.Bytes) {
		t.Errorf("byte counter = %d, result = %d", got, res.Bytes)
	}
	if got := counter("collabvr_client_nack_tiles_total"); got != uint64(res.Nacks) {
		t.Errorf("nack counter = %d, result = %d", got, res.Nacks)
	}
	if res.Nacks == 0 {
		t.Error("no NACKs under injected loss")
	}
	if counter("collabvr_client_rx_incomplete_tiles_dropped_total") == 0 {
		t.Error("no incomplete-tile drops counted under injected loss")
	}
	if counter("collabvr_client_frames_displayed_total")+
		counter("collabvr_client_frames_missed_total") != uint64(res.Slots) {
		t.Errorf("frame counters (%d + %d) disagree with %d slots",
			counter("collabvr_client_frames_displayed_total"),
			counter("collabvr_client_frames_missed_total"), res.Slots)
	}
}
