package tsdb

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"repro/internal/jsonl"
	"repro/internal/obs"
)

// SnapPoint is one sample, as the ring holds it and the export writes it.
type SnapPoint struct {
	Slot  int64   `json:"slot"`
	Value float64 `json:"value"`
}

// SeriesSnapshot is one series' ring: the unit of the JSONL export (one
// snapshot per line) and of the /debug/health document.
type SeriesSnapshot struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Shard is the owning shard, or -1 for a fleet-wide series.
	Shard  int         `json:"shard"`
	Points []SnapPoint `json:"points"`
}

// key identifies the snapshot's series for joins against a baseline.
func (s *SeriesSnapshot) key() string {
	return fmt.Sprintf("%s#%d", s.Name, s.Shard)
}

// summary reduces the snapshot to one scalar for baseline comparison:
// counters report the total delta across the window, gauges the point mean.
func (s *SeriesSnapshot) summary() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	if s.Kind == Counter.String() {
		return s.Points[len(s.Points)-1].Value - s.Points[0].Value
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.Value
	}
	return sum / float64(len(s.Points))
}

// Snapshot exports every series, sorted by (name, shard) so the export is
// deterministic regardless of registration order.
func (st *Store) Snapshot() []SeriesSnapshot {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	out := make([]SeriesSnapshot, 0, len(st.series))
	for _, s := range st.series {
		snap := SeriesSnapshot{Name: s.name, Kind: s.kind.String(), Shard: s.shard}
		snap.Points = make([]SnapPoint, s.raw.Len())
		for i := range snap.Points {
			snap.Points[i] = s.raw.At(i)
		}
		out = append(out, snap)
	}
	st.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Shard < out[j].Shard
	})
	return out
}

// WriteJSONL writes the snapshot as line-delimited JSON, one series per
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
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].Slot < s.Points[i-1].Slot {
			return fmt.Errorf("tsdb: series %q: slots regress at point %d", s.Name, i)
		}
	}
	return nil
}

// ReadSnapshots decodes a JSONL health export with the repo's tolerant
// trailing-line policy (see internal/jsonl): interior corruption is fatal,
// a live writer's partial tail is skipped and counted. An export holds one
// snapshot per (name, shard); a second one is an error, so that an export
// with other resolutions beside each series is refused rather than
// mis-joined against a baseline.
func ReadSnapshots(r io.Reader) ([]SeriesSnapshot, int, error) {
	snaps, skipped, err := jsonl.Decode[SeriesSnapshot](r, validateSnapshot)
	if err != nil {
		return nil, 0, err
	}
	seen := make(map[string]bool, len(snaps))
	for i := range snaps {
		k := snaps[i].key()
		if seen[k] {
			return nil, 0, fmt.Errorf("tsdb: series %s appears twice", k)
		}
		seen[k] = true
	}
	return snaps, skipped, nil
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
// `name` (empty = all).
func (st *Store) doc(name string) HealthDoc {
	doc := HealthDoc{SeriesCount: st.Len()}
	for _, snap := range st.Snapshot() {
		if n := len(snap.Points); n > 0 && snap.Points[n-1].Slot > doc.Slot {
			doc.Slot = snap.Points[n-1].Slot
		}
		if name != "" && !strings.Contains(snap.Name, name) {
			continue
		}
		doc.Series = append(doc.Series, snap)
	}
	return doc
}

// Handler serves the store as the /debug/health endpoint. The query
// parameter `name` filters series by substring.
func Handler(st *Store) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		obs.ServeJSON(w, st.doc(req.URL.Query().Get("name")))
	})
}
