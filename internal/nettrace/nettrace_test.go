package nettrace

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func TestGenerateRespectsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultConfig()
	for _, kind := range []Kind{Broadband, LTE} {
		for trial := 0; trial < 20; trial++ {
			tr := Generate(kind, cfg, rng)
			if math.Abs(tr.Duration()-cfg.Seconds) > 1e-6 {
				t.Fatalf("kind %d: duration %v, want %v", kind, tr.Duration(), cfg.Seconds)
			}
			for i, s := range tr.Segments {
				if s.Mbps < cfg.MinMbps-1e-9 || s.Mbps > cfg.MaxMbps+1e-9 {
					t.Fatalf("kind %d seg %d: %v Mbps outside [%v, %v]",
						kind, i, s.Mbps, cfg.MinMbps, cfg.MaxMbps)
				}
				if s.Seconds <= 0 {
					t.Fatalf("kind %d seg %d: nonpositive duration", kind, i)
				}
			}
		}
	}
}

func TestGenerateHoldLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := DefaultConfig()
	bb := Generate(Broadband, cfg, rng)
	lte := Generate(LTE, cfg, rng)
	avg := func(tr *Trace) float64 {
		return tr.Duration() / float64(len(tr.Segments))
	}
	// Broadband holds are multi-second and longer than LTE holds.
	if avg(bb) < 4 {
		t.Errorf("broadband mean hold %v s, want >= 4", avg(bb))
	}
	if avg(lte) > avg(bb) {
		t.Errorf("LTE holds (%v s) should be shorter than broadband (%v s)",
			avg(lte), avg(bb))
	}
}

func TestLTEMoreVolatileThanBroadband(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultConfig()
	volatility := func(kind Kind) float64 {
		var sum float64
		const trials = 30
		for i := 0; i < trials; i++ {
			tr := Generate(kind, cfg, rng)
			slots := tr.Slotted(300*60, 60)
			var diffs float64
			for j := 1; j < len(slots); j++ {
				diffs += math.Abs(slots[j] - slots[j-1])
			}
			sum += diffs
		}
		return sum / trials
	}
	if lte, bb := volatility(LTE), volatility(Broadband); lte <= bb {
		t.Errorf("LTE volatility %v should exceed broadband %v", lte, bb)
	}
}

func TestMmWaveBlockageCollapses(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := DefaultConfig()
	tr := Generate(MmWave, cfg, rng)
	if math.Abs(tr.Duration()-cfg.Seconds) > 1e-6 {
		t.Fatalf("duration %v", tr.Duration())
	}
	var high, low int
	for _, s := range tr.Segments {
		if s.Mbps > cfg.MaxMbps*0.75 {
			high++
		}
		if s.Mbps < cfg.MinMbps*1.6 {
			low++
		}
	}
	if high == 0 || low == 0 {
		t.Errorf("mmWave should mix near-ceiling and blocked segments: high=%d low=%d", high, low)
	}
}

func TestGenerateMixAlternates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	traces := GenerateMix(10, DefaultConfig(), rng)
	if len(traces) != 10 {
		t.Fatalf("got %d traces", len(traces))
	}
	for _, tr := range traces {
		if len(tr.Segments) == 0 {
			t.Fatalf("empty trace in mix")
		}
	}
}

func TestSlottedSharesBandwidthAcrossSlots(t *testing.T) {
	tr := &Trace{Segments: []Segment{
		{Mbps: 50, Seconds: 1},
		{Mbps: 80, Seconds: 0.5},
	}}
	slots := tr.Slotted(120, 60) // 2 seconds at 60 slots/s; trace wraps
	for i := 0; i < 60; i++ {
		if slots[i] != 50 {
			t.Fatalf("slot %d = %v, want 50", i, slots[i])
		}
	}
	for i := 60; i < 90; i++ {
		if slots[i] != 80 {
			t.Fatalf("slot %d = %v, want 80", i, slots[i])
		}
	}
	// Wrap-around back to the first segment.
	if slots[95] != 50 {
		t.Errorf("slot 95 = %v, want 50 after wrap", slots[95])
	}
}

func TestSlottedEmptyTrace(t *testing.T) {
	tr := &Trace{}
	slots := tr.Slotted(10, 60)
	for _, s := range slots {
		if s != 0 {
			t.Fatalf("empty trace should produce zeros")
		}
	}
}

func TestSlottedDefaultRate(t *testing.T) {
	tr := &Trace{Segments: []Segment{{Mbps: 42, Seconds: 100}}}
	slots := tr.Slotted(5, 0)
	for _, s := range slots {
		if s != 42 {
			t.Fatalf("slot = %v, want 42", s)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := Generate(LTE, DefaultConfig(), rng)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Segments) != len(tr.Segments) {
		t.Fatalf("segments %d, want %d", len(back.Segments), len(tr.Segments))
	}
	for i := range tr.Segments {
		if math.Abs(tr.Segments[i].Mbps-back.Segments[i].Mbps) > 1e-6 {
			t.Fatalf("segment %d mismatch", i)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("")); err == nil {
		t.Error("empty csv should error")
	}
	if _, err := ReadCSV(bytes.NewBufferString("mbps,seconds\nx,1\n")); err == nil {
		t.Error("bad mbps should error")
	}
	if _, err := ReadCSV(bytes.NewBufferString("mbps,seconds\n1,x\n")); err == nil {
		t.Error("bad seconds should error")
	}
	if _, err := ReadCSV(bytes.NewBufferString("mbps,seconds\n1\n")); err == nil {
		t.Error("short row should error")
	}
}

// GenerateInto draws the trace Generate does from the same seed, over a
// trace that held another one, and reuses its segment array when it has
// room.
func TestGenerateIntoMatchesGenerate(t *testing.T) {
	cfg := DefaultConfig()
	var tr Trace
	for seed, kind := range []Kind{LTE, Broadband, MmWave, LTE} {
		tr.GenerateInto(kind, cfg, rand.New(rand.NewSource(int64(seed))))
		want := Generate(kind, cfg, rand.New(rand.NewSource(int64(seed))))
		if len(tr.Segments) != len(want.Segments) {
			t.Fatalf("%v seed %d: %d segments, want %d", kind, seed, len(tr.Segments), len(want.Segments))
		}
		for i := range want.Segments {
			if tr.Segments[i] != want.Segments[i] {
				t.Fatalf("%v seed %d: segment %d = %+v, want %+v", kind, seed, i, tr.Segments[i], want.Segments[i])
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	tr.Segments = make([]Segment, 0, 512)
	if allocs := testing.AllocsPerRun(20, func() { tr.GenerateInto(LTE, cfg, rng) }); allocs != 0 {
		t.Errorf("GenerateInto with room allocates %v times, want 0", allocs)
	}
}
