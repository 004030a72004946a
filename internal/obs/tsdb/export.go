package tsdb

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/jsonl"
	"repro/internal/obs"
)

// SnapPoint is one exported point. For raw-tier points Value is the sample
// itself and Count is 1; for downsampled points Value is the window
// reduction (counter: delta; gauge/hist: mean) with the window's min/max and
// sample count alongside.
type SnapPoint struct {
	Slot  int64   `json:"slot"`
	Value float64 `json:"value"`
	Count uint32  `json:"count,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

// SeriesSnapshot is one series at one resolution tier — the unit of the
// JSONL export (one snapshot per line) and of the /debug/health document.
type SeriesSnapshot struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Shard is the owning shard, or -1 for a fleet-wide series.
	Shard int `json:"shard"`
	// Tier is the slots-per-point resolution: 1 (raw), 10 or 100.
	Tier   int         `json:"tier"`
	Points []SnapPoint `json:"points"`
}

// key identifies the snapshot's series+tier for joins against a baseline.
func (s *SeriesSnapshot) key() string {
	return fmt.Sprintf("%s#%d@%d", s.Name, s.Shard, s.Tier)
}

// summary reduces the snapshot to one scalar for baseline comparison:
// counters report the total delta across the window, gauges the point mean.
func (s *SeriesSnapshot) summary() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	if s.Kind == Counter.String() {
		if s.Tier == 1 {
			return s.Points[len(s.Points)-1].Value - s.Points[0].Value
		}
		total := 0.0
		for _, p := range s.Points {
			total += p.Value
		}
		return total
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.Value
	}
	return sum / float64(len(s.Points))
}

// snapshotSeries renders one series at every tier (store lock held).
func snapshotSeries(s *Series) []SeriesSnapshot {
	out := make([]SeriesSnapshot, 0, 3)

	raw := SeriesSnapshot{Name: s.name, Kind: s.kind.String(), Shard: s.shard, Tier: 1}
	raw.Points = make([]SnapPoint, 0, s.raw.Len())
	for i := 0; i < s.raw.Len(); i++ {
		p := s.raw.At(i)
		raw.Points = append(raw.Points, SnapPoint{Slot: p.Slot, Value: p.Value})
	}
	out = append(out, raw)

	for ti := range s.tiers {
		t := &s.tiers[ti]
		snap := SeriesSnapshot{Name: s.name, Kind: s.kind.String(), Shard: s.shard, Tier: int(t.width)}
		snap.Points = make([]SnapPoint, 0, t.pts.Len()+1)
		for i := 0; i < t.pts.Len(); i++ {
			a := t.pts.At(i)
			snap.Points = append(snap.Points, SnapPoint{
				Slot: a.Slot, Value: a.value(s.kind), Count: a.Count, Min: a.Min, Max: a.Max,
			})
		}
		// The partially-filled current window is real signal — without it a
		// short run exports empty downsampled tiers — and it is fully
		// determined by the observations, so determinism survives.
		if t.cur.Count > 0 {
			snap.Points = append(snap.Points, SnapPoint{
				Slot: t.cur.Slot, Value: t.cur.value(s.kind), Count: t.cur.Count,
				Min: t.cur.Min, Max: t.cur.Max,
			})
		}
		out = append(out, snap)
	}
	return out
}

// Snapshot exports every series at every tier, sorted by (name, shard,
// tier) so the export is deterministic regardless of registration order.
func (st *Store) Snapshot() []SeriesSnapshot {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	out := make([]SeriesSnapshot, 0, 3*len(st.series))
	for _, s := range st.series {
		out = append(out, snapshotSeries(s)...)
	}
	st.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		if out[i].Shard != out[j].Shard {
			return out[i].Shard < out[j].Shard
		}
		return out[i].Tier < out[j].Tier
	})
	return out
}

// WriteJSONL writes the snapshot as line-delimited JSON, one series+tier per
// line — collabvr-inspect health's input format. Deterministic for a
// deterministic store.
func (st *Store) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, snap := range st.Snapshot() {
		if err := enc.Encode(&snap); err != nil {
			return fmt.Errorf("tsdb: write: %w", err)
		}
	}
	return nil
}

// validateSnapshot is the JSONL reader's per-record check.
func validateSnapshot(s *SeriesSnapshot) error {
	if s.Name == "" {
		return fmt.Errorf("tsdb: snapshot without a name")
	}
	if _, ok := kindByName(s.Kind); !ok {
		return fmt.Errorf("tsdb: series %q: unknown kind %q", s.Name, s.Kind)
	}
	switch s.Tier {
	case 1, tier10, tier100:
	default:
		return fmt.Errorf("tsdb: series %q: tier %d not in {1, 10, 100}", s.Name, s.Tier)
	}
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].Slot < s.Points[i-1].Slot {
			return fmt.Errorf("tsdb: series %q tier %d: slots regress at point %d", s.Name, s.Tier, i)
		}
	}
	return nil
}

// ReadSnapshots decodes a JSONL health export with the repo's tolerant
// trailing-line policy (see internal/jsonl): interior corruption is fatal,
// a live writer's partial tail is skipped and counted.
func ReadSnapshots(r io.Reader) ([]SeriesSnapshot, int, error) {
	return jsonl.Decode[SeriesSnapshot](r, validateSnapshot)
}

// HealthDoc is the /debug/health JSON document.
type HealthDoc struct {
	// Slot is the newest slot any series has seen.
	Slot int64 `json:"slot"`
	// SeriesCount is the registered series count (before filtering).
	SeriesCount int              `json:"series_count"`
	Series      []SeriesSnapshot `json:"series"`
}

// doc builds the health document: the full snapshot filtered to substring
// `name` (empty = all) and tier (0 = all).
func (st *Store) doc(name string, tier int) HealthDoc {
	doc := HealthDoc{SeriesCount: st.Len()}
	for _, snap := range st.Snapshot() {
		if n := len(snap.Points); n > 0 && snap.Points[n-1].Slot > doc.Slot {
			doc.Slot = snap.Points[n-1].Slot
		}
		if name != "" && !strings.Contains(snap.Name, name) {
			continue
		}
		if tier != 0 && snap.Tier != tier {
			continue
		}
		doc.Series = append(doc.Series, snap)
	}
	return doc
}

// Handler serves the store as the /debug/health endpoint. Query parameters:
// `name` filters series by substring, `tier` selects one resolution
// (1, 10 or 100).
func Handler(st *Store) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tier := 0
		if s := req.URL.Query().Get("tier"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || (v != 1 && v != tier10 && v != tier100) {
				http.Error(w, "bad tier (want 1, 10 or 100)", http.StatusBadRequest)
				return
			}
			tier = v
		}
		obs.ServeJSON(w, st.doc(req.URL.Query().Get("name"), tier))
	})
}
