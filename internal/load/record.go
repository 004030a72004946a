package load

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/motion"
)

// The JSONL workload format is one event object per line:
//
//	{"e":"config","cfg":{...}}            — first line, the generator config
//	{"e":"arrive","slot":S,"sess":{...}}  — a session arrives (full spec)
//	{"e":"pose","slot":S,"id":N,...}      — optional per-slot pose events
//	{"e":"depart","slot":S,"id":N}        — a session departs
//
// Events are ordered by slot, then by kind (arrive < pose < depart), then by
// session ID, so generation is deterministic down to the byte: the same seed
// always produces the identical file. Pose events are derivable from the
// arrive specs (motion traces are seeded), so they are optional — included
// they make the file a self-contained event log, omitted they keep a
// thousand-session workload small.

// event is the one-per-line JSONL record.
type event struct {
	E    string       `json:"e"`
	Slot int          `json:"slot,omitempty"`
	Cfg  *Config      `json:"cfg,omitempty"`
	Sess *SessionSpec `json:"sess,omitempty"`
	ID   *uint32      `json:"id,omitempty"`
	// Pose fields (e == "pose").
	X     float64 `json:"x,omitempty"`
	Y     float64 `json:"y,omitempty"`
	Z     float64 `json:"z,omitempty"`
	Yaw   float64 `json:"yaw,omitempty"`
	Pitch float64 `json:"pitch,omitempty"`
	Roll  float64 `json:"roll,omitempty"`
}

// WriteJSONL serializes the workload as a JSONL event stream. With
// includePoses every session's per-slot pose is written too, making the file
// the full arrival/pose/departure event log; without, only arrivals and
// departures are recorded (poses regenerate from the session specs).
func (w *Workload) WriteJSONL(out io.Writer, includePoses bool) error {
	bw := bufio.NewWriter(out)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(event{E: "config", Cfg: &w.Cfg}); err != nil {
		return fmt.Errorf("load: write config: %w", err)
	}

	// Bucket events by slot. Sessions are sorted by (arrive, ID) already;
	// departures and poses are emitted in ID order per slot.
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
	var walks map[int]*motion.Walker // the active sessions' motion, streamed
	if includePoses {
		walks = make(map[int]*motion.Walker, len(w.Sessions))
	}
	active := make([]int, 0)
	for slot := 0; slot <= maxSlot; slot++ {
		for _, i := range byArrive[slot] {
			s := w.Sessions[i]
			if err := enc.Encode(event{E: "arrive", Slot: slot, Sess: &s}); err != nil {
				return fmt.Errorf("load: write arrive: %w", err)
			}
			if includePoses {
				walk := w.walker(s, nil)
				walks[i] = &walk
				active = insertSorted(active, i, w.Sessions)
			}
		}
		if includePoses {
			next := active[:0]
			for _, i := range active {
				s := w.Sessions[i]
				if slot >= s.DepartSlot {
					continue
				}
				next = append(next, i)
				p := walks[i].Next()
				id := s.ID
				if err := enc.Encode(event{E: "pose", Slot: slot, ID: &id,
					X: p.Pos.X, Y: p.Pos.Y, Z: p.Pos.Z, Yaw: p.Yaw, Pitch: p.Pitch, Roll: p.Roll}); err != nil {
					return fmt.Errorf("load: write pose: %w", err)
				}
			}
			active = next
		}
		for _, i := range byDepart[slot] {
			id := w.Sessions[i].ID
			if err := enc.Encode(event{E: "depart", Slot: slot, ID: &id}); err != nil {
				return fmt.Errorf("load: write depart: %w", err)
			}
			delete(walks, i)
		}
	}
	return bw.Flush()
}

// insertSorted keeps the active-index list ordered by session ID.
func insertSorted(list []int, idx int, specs []SessionSpec) []int {
	list = append(list, idx)
	for j := len(list) - 1; j > 0 && specs[list[j-1]].ID > specs[list[j]].ID; j-- {
		list[j-1], list[j] = list[j], list[j-1]
	}
	return list
}

// ReadJSONL parses a workload written by WriteJSONL. Pose events are
// validated for shape but not stored (they regenerate from the specs);
// depart events are checked against the arrive specs so a hand-edited file
// cannot silently disagree with itself.
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
		case "pose":
			if ev.ID == nil {
				return nil, fmt.Errorf("load: line %d: pose event without id", line)
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
