package obs

import (
	"io"
	"net/http"
	"sync"

	"repro/internal/jsonl"
)

// Placement reasons: why the fleet router was asked for a shard. Arrival is
// the admission decision for a new session; the migration reasons name the
// event that evicted the session from its previous shard.
const (
	PlaceArrival     = "arrival"
	PlaceShardKill   = "shard-kill"
	PlaceShardDrain  = "shard-drain"
	PlaceSLOPressure = "slo-pressure"
)

// ShardScore is one candidate shard's state and score at a placement
// decision — the fleet analogue of a SlotRecord alternative: enough to
// replay why the router preferred the chosen shard over this one.
type ShardScore struct {
	Shard      int     `json:"shard"`
	Zone       int     `json:"zone"`
	Score      float64 `json:"score"`
	Sessions   int     `json:"sessions"`
	BudgetMbps float64 `json:"budget_mbps"`
	DemandMbps float64 `json:"demand_mbps"`
	// PageFrac is the fraction of the shard's sessions whose SLO burn rate
	// is in the page state (the input of burn-rate-aware scoring).
	PageFrac float64 `json:"page_frac"`
	Draining bool    `json:"draining,omitempty"`
}

// PlacementRecord is one fleet routing decision: which shard got the
// session, why the decision was being made, and how every live candidate
// scored. It is the placement-layer mirror of the knapsack flight
// recorder's SlotRecord.
type PlacementRecord struct {
	Seq     uint64 `json:"seq"`
	Slot    int    `json:"slot"`
	Session uint32 `json:"session"`
	Zone    int    `json:"zone"`
	Scorer  string `json:"scorer"`
	// Reason is one of the Place* constants.
	Reason string `json:"reason"`
	// Chosen is the winning shard (-1: no shard could accept the session).
	Chosen int `json:"chosen"`
	// From is the source shard of a migration (-1 for arrivals).
	From   int          `json:"from"`
	Scores []ShardScore `json:"scores,omitempty"`
}

// PlacementRecorderOptions configures a PlacementRecorder.
type PlacementRecorderOptions struct {
	// RingSize bounds the in-memory ring served by /debug/fleet
	// (default 256).
	RingSize int
	// Writer, when non-nil, receives every record as one JSON line.
	Writer io.Writer
	// Metrics, when non-nil, receives collabvr_fleet_* counters.
	Metrics *Registry
}

// PlacementRecorder is the concurrency-safe jsonl.Sink of fleet placement
// decisions. A nil *PlacementRecorder is the disabled recorder: Record is
// a no-op, so the router never branches on observability being wired.
type PlacementRecorder struct {
	mu         sync.Mutex // held across every Put, so Seq follows ring order
	sink       *jsonl.Sink[PlacementRecord]
	placements *Counter
	migrations *Counter
	failed     *Counter
}

// NewPlacementRecorder builds a placement recorder.
func NewPlacementRecorder(opts PlacementRecorderOptions) *PlacementRecorder {
	r := &PlacementRecorder{
		sink: jsonl.NewSink[PlacementRecord](jsonl.SinkOptions{RingSize: opts.RingSize, Writer: opts.Writer, Sync: true}),
	}
	if opts.Metrics != nil {
		r.placements = opts.Metrics.Counter("collabvr_fleet_placements_total")
		r.migrations = opts.Metrics.Counter("collabvr_fleet_migrations_total")
		r.failed = opts.Metrics.Counter("collabvr_fleet_placements_failed_total")
	}
	return r
}

// Record ingests one placement decision, assigning its sequence number.
// The record is copied; the Scores slice is aliased by the ring.
func (r *PlacementRecorder) Record(rec *PlacementRecord) {
	if r == nil || rec == nil {
		return
	}
	r.mu.Lock()
	rec.Seq = r.sink.Records() + 1
	r.sink.Put(rec)
	r.mu.Unlock()
	if rec.Chosen < 0 {
		r.failed.Inc()
		return
	}
	r.placements.Inc()
	if rec.Reason != PlaceArrival {
		r.migrations.Inc()
	}
}

// sinkOrNil is the recorder's sink, nil when the recorder is.
func (r *PlacementRecorder) sinkOrNil() *jsonl.Sink[PlacementRecord] {
	if r == nil {
		return nil
	}
	return r.sink
}

// Err returns the first JSONL write error, if any.
func (r *PlacementRecorder) Err() error { return r.sinkOrNil().Err() }

// Records returns the total number of decisions ingested.
func (r *PlacementRecorder) Records() uint64 { return r.sinkOrNil().Records() }

// Recent returns up to n of the most recent records, oldest first.
func (r *PlacementRecorder) Recent(n int) []PlacementRecord { return r.sinkOrNil().Recent(n) }

// RingCapacity returns the configured ring size.
func (r *PlacementRecorder) RingCapacity() int { return r.sinkOrNil().Cap() }

// Dropped returns how many records have already fallen out of the ring —
// the same ring_capacity/ring_dropped accounting /debug/slots reports for
// the flight recorder.
func (r *PlacementRecorder) Dropped() uint64 { return r.sinkOrNil().Evicted() }

// FleetShardState is one shard's row in the fleet snapshot.
type FleetShardState struct {
	Shard       int     `json:"shard"`
	Zone        int     `json:"zone"`
	Alive       bool    `json:"alive"`
	Draining    bool    `json:"draining,omitempty"`
	Sessions    int     `json:"sessions"`
	BudgetMbps  float64 `json:"budget_mbps"`
	DemandMbps  float64 `json:"demand_mbps"`
	PageFrac    float64 `json:"page_frac"`
	Placed      int     `json:"placed"`
	MigratedIn  int     `json:"migrated_in"`
	MigratedOut int     `json:"migrated_out"`
}

// FleetSnapshot is the /debug/fleet JSON document: the coordinator's
// current view of every shard plus the placement-decision tail.
type FleetSnapshot struct {
	Scorer           string            `json:"scorer"`
	GlobalBudgetMbps float64           `json:"global_budget_mbps"`
	Slot             int               `json:"slot"`
	Shards           []FleetShardState `json:"shards"`
	Placements       uint64            `json:"placements"`
	Migrations       int               `json:"migrations"`
	Rebalances       int               `json:"rebalances"`
	// Evacuations counts sessions moved by the SLO-pressure loop (a subset
	// of Migrations).
	Evacuations int `json:"evacuations,omitempty"`
	// RingCapacity/RingDropped mirror the /debug/slots flight-recorder
	// accounting for the placement ring.
	RingCapacity int               `json:"ring_capacity"`
	RingDropped  uint64            `json:"ring_dropped"`
	Recent       []PlacementRecord `json:"recent,omitempty"`
}

// fleetHandler serves a fleet snapshot producer as JSON. The `n` query
// parameter bounds the placement-record tail (default 64).
func fleetHandler(snapshot func(n int) FleetSnapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if n, ok := queryN(w, req); ok {
			ServeJSON(w, snapshot(n))
		}
	})
}
