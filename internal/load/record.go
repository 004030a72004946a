package load

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// The JSONL workload format is one event object per line:
//
//	{"e":"config","cfg":{...}}            — first line, the generator config
//	{"e":"arrive","slot":S,"sess":{...}}  — a session arrives (full spec)
//	{"e":"depart","slot":S,"id":N}        — a session departs
//
// Events are ordered by slot, then by kind (arrive < depart), then by
// (arrive slot, session ID), so generation is deterministic down to the byte: the same seed
// always produces the identical file. Poses are not recorded: a session's
// motion trace is seeded, and replay rebuilds it from the arrive spec.

// event is the one-per-line JSONL record.
type event struct {
	E    string       `json:"e"`
	Slot int          `json:"slot,omitempty"`
	Cfg  *Config      `json:"cfg,omitempty"`
	Sess *SessionSpec `json:"sess,omitempty"`
	ID   *uint32      `json:"id,omitempty"`
}

// WriteJSONL serializes the workload as a JSONL event stream of arrivals
// and departures.
func (w *Workload) WriteJSONL(out io.Writer) error {
	bw := bufio.NewWriter(out)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(event{E: "config", Cfg: &w.Cfg}); err != nil {
		return fmt.Errorf("load: write config: %w", err)
	}

	// Bucket events by slot. Sessions are sorted by (arrive, ID) already,
	// and each slot's arrivals and departures keep that order.
	byArrive := make(map[int][]int) // slot -> session indexes
	byDepart := make(map[int][]int)
	maxSlot := 0
	for i, s := range w.Sessions {
		byArrive[s.ArriveSlot] = append(byArrive[s.ArriveSlot], i)
		byDepart[s.DepartSlot] = append(byDepart[s.DepartSlot], i)
		if s.DepartSlot > maxSlot {
			maxSlot = s.DepartSlot
		}
	}
	for slot := 0; slot <= maxSlot; slot++ {
		for _, i := range byArrive[slot] {
			s := w.Sessions[i]
			if err := enc.Encode(event{E: "arrive", Slot: slot, Sess: &s}); err != nil {
				return fmt.Errorf("load: write arrive: %w", err)
			}
		}
		for _, i := range byDepart[slot] {
			id := w.Sessions[i].ID
			if err := enc.Encode(event{E: "depart", Slot: slot, ID: &id}); err != nil {
				return fmt.Errorf("load: write depart: %w", err)
			}
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a workload written by WriteJSONL. Depart events are
// checked against the arrive specs so a hand-edited file cannot silently
// disagree with itself.
func ReadJSONL(in io.Reader) (*Workload, error) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	w := &Workload{}
	sawConfig := false
	byID := make(map[uint32]SessionSpec)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("load: line %d: %w", line, err)
		}
		switch ev.E {
		case "config":
			if ev.Cfg == nil {
				return nil, fmt.Errorf("load: line %d: config event without cfg", line)
			}
			w.Cfg = *ev.Cfg
			sawConfig = true
		case "arrive":
			if ev.Sess == nil {
				return nil, fmt.Errorf("load: line %d: arrive event without sess", line)
			}
			s := *ev.Sess
			if _, dup := byID[s.ID]; dup {
				return nil, fmt.Errorf("load: line %d: duplicate session %d", line, s.ID)
			}
			w.Sessions = append(w.Sessions, s)
			byID[s.ID] = s
		case "depart":
			if ev.ID == nil {
				return nil, fmt.Errorf("load: line %d: depart event without id", line)
			}
			s, ok := byID[*ev.ID]
			if !ok {
				return nil, fmt.Errorf("load: line %d: depart of unknown session %d", line, *ev.ID)
			}
			if s.DepartSlot != ev.Slot {
				return nil, fmt.Errorf("load: line %d: session %d departs at %d, spec says %d",
					line, *ev.ID, ev.Slot, s.DepartSlot)
			}
		default:
			return nil, fmt.Errorf("load: line %d: unknown event %q", line, ev.E)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("load: read: %w", err)
	}
	if !sawConfig {
		return nil, fmt.Errorf("load: missing config line")
	}
	// Re-sort defensively in case the file was concatenated or hand-edited
	// out of order.
	sortSessions(w.Sessions)
	return w, nil
}
