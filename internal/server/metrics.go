package server

import (
	"repro/internal/obs"
	"repro/internal/transport"
)

// serverMetrics bundles the server's observability instruments. All fields
// are nil-safe: built from a nil registry every instrument is nil and every
// operation is an allocation-free no-op, so the hot path pays only pointer
// checks when observability is disabled.
type serverMetrics struct {
	sessionsJoined   *obs.Counter
	sessionsLeft     *obs.Counter
	sessionsRejected *obs.Counter
	sessionsActive   *obs.Gauge
	handoffsOut      *obs.Counter
	handoffsIn       *obs.Counter
	coordFenced      *obs.Counter

	slots          *obs.Counter
	deadlineMiss   *obs.Counter
	acks           *obs.Counter
	nacks          *obs.Counter
	nackTiles      *obs.Counter
	retransmits    *obs.Counter
	retryAbandoned *obs.Counter
	tilesSent      *obs.Counter
	tilesSkipped   *obs.Counter
	breakerCapped  *obs.Counter
	panics         *obs.Counter

	txPackets *obs.Counter
	txBytes   *obs.Counter
	txDropped *obs.Counter
	// txWrites counts writes handed to the socket: txPackets over it is the
	// mean datagrams per write, above 1 where the senders' trains form.
	txWrites      *obs.Counter
	txGSOFallback *obs.Counter

	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	cacheHitRatio *obs.Gauge

	capEstRelErr   *obs.Histogram
	slotDecisionMs *obs.Histogram
	allocLevel     *obs.Histogram
	sessionSetupMs *obs.Histogram
	sessionMeanQ   *obs.Histogram
}

// newServerMetrics registers the server's instruments; a nil registry
// yields all-nil (disabled) instruments.
func newServerMetrics(r *obs.Registry) serverMetrics {
	return serverMetrics{
		sessionsJoined:   r.Counter("collabvr_server_sessions_joined_total"),
		sessionsLeft:     r.Counter("collabvr_server_sessions_left_total"),
		sessionsRejected: r.Counter("collabvr_server_sessions_rejected_total"),
		sessionsActive:   r.Gauge("collabvr_server_sessions_active"),
		handoffsOut:      r.Counter("collabvr_server_sessions_handoff_out_total"),
		handoffsIn:       r.Counter("collabvr_server_sessions_handoff_in_total"),
		coordFenced:      r.Counter("collabvr_fleet_coord_fenced_total"),
		slots:            r.Counter("collabvr_server_slots_total"),
		deadlineMiss:     r.Counter("collabvr_server_slot_deadline_miss_total"),
		acks:             r.Counter("collabvr_server_acks_total"),
		nacks:            r.Counter("collabvr_server_nacks_total"),
		nackTiles:        r.Counter("collabvr_server_nack_tiles_total"),
		retransmits:      r.Counter("collabvr_server_retransmit_tiles_total"),
		retryAbandoned:   r.Counter("collabvr_server_retry_abandoned_tiles_total"),
		tilesSent:        r.Counter("collabvr_server_tiles_sent_total"),
		tilesSkipped:     r.Counter("collabvr_server_tiles_skipped_total"),
		breakerCapped:    r.Counter("collabvr_server_breaker_capped_slots_total"),
		panics:           r.Counter("collabvr_server_panics_recovered_total"),
		txPackets:        r.Counter("collabvr_server_tx_packets_total"),
		txBytes:          r.Counter("collabvr_server_tx_bytes_total"),
		txDropped:        r.Counter("collabvr_server_tx_dropped_total"),
		txWrites:         r.Counter("collabvr_server_tx_writes_total"),
		txGSOFallback:    r.Counter("collabvr_server_tx_gso_fallback_total"),
		cacheHits:        r.Counter("collabvr_server_tile_cache_hits_total"),
		cacheMisses:      r.Counter("collabvr_server_tile_cache_misses_total"),
		cacheHitRatio:    r.Gauge("collabvr_server_tile_cache_hit_ratio"),
		// Relative capacity-estimate error |est-measured|/measured.
		capEstRelErr: r.Histogram("collabvr_server_cap_estimate_rel_error",
			obs.ExponentialBuckets(0.01, 2, 10)),
		slotDecisionMs: r.Histogram("collabvr_server_slot_decision_ms",
			obs.DefaultLatencyBuckets()),
		allocLevel: r.Histogram("collabvr_server_alloc_level",
			obs.LinearBuckets(1, 1, 8)),
		sessionSetupMs: r.Histogram("collabvr_server_session_setup_ms",
			obs.DefaultLatencyBuckets()),
		sessionMeanQ: r.Histogram("collabvr_server_session_mean_quality",
			obs.LinearBuckets(0.5, 0.5, 12)),
	}
}

// instrumentSender attaches the shared transmit counters to a session's
// sender.
func (m *serverMetrics) instrumentSender(s *transport.Sender) {
	s.Instrument(m.txPackets, m.txBytes, m.txDropped)
	s.InstrumentWrites(m.txWrites, m.txGSOFallback)
}
