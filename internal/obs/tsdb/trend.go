package tsdb

import (
	"fmt"
	"math"
	"sort"
)

// Trend summarizes one snapshot for the CLI report.
type Trend struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Shard  int     `json:"shard"`
	Points int     `json:"points"`
	First  float64 `json:"first"`
	Last   float64 `json:"last"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
	// Summary is the baseline-comparison scalar (counter: total delta;
	// gauge/hist: mean of points).
	Summary float64 `json:"summary"`
	// Direction is "up", "down" or "flat": the sign of the second-half
	// mean minus the first-half mean, dead-banded at 1% of the value scale.
	Direction string `json:"direction"`
}

// TrendOf reduces one snapshot to its trend row.
func TrendOf(snap SeriesSnapshot) Trend {
	t := Trend{
		Name: snap.Name, Kind: snap.Kind, Shard: snap.Shard,
		Points: len(snap.Points), Summary: snap.summary(), Direction: "flat",
	}
	if len(snap.Points) == 0 {
		return t
	}
	t.First = snap.Points[0].Value
	t.Last = snap.Points[len(snap.Points)-1].Value
	t.Min, t.Max = t.First, t.First
	sum := 0.0
	for _, p := range snap.Points {
		if p.Value < t.Min {
			t.Min = p.Value
		}
		if p.Value > t.Max {
			t.Max = p.Value
		}
		sum += p.Value
	}
	t.Mean = sum / float64(len(snap.Points))

	half := len(snap.Points) / 2
	if half > 0 {
		var a, b float64
		for _, p := range snap.Points[:half] {
			a += p.Value
		}
		for _, p := range snap.Points[half:] {
			b += p.Value
		}
		a /= float64(half)
		b /= float64(len(snap.Points) - half)
		scale := math.Max(math.Abs(t.Min), math.Abs(t.Max))
		deadband := 0.01 * scale
		switch {
		case b-a > deadband:
			t.Direction = "up"
		case a-b > deadband:
			t.Direction = "down"
		}
	}
	return t
}

// Regression is one baseline-comparison failure: a series whose summary
// moved past the tolerance in its bad direction.
type Regression struct {
	Key      string  `json:"key"`
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	// Ratio is current/baseline when baseline is nonzero.
	Ratio float64 `json:"ratio,omitempty"`
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: baseline %.4g -> current %.4g (ratio %.3f)", r.Key, r.Baseline, r.Current, r.Ratio)
}

// badDirectionUp reports whether a larger value of the named series is
// worse. Health series follow the convention that miss/stall/page/drop/
// abandon/retry/evac style names grow when things degrade, while
// quality/budget style names shrink.
func badDirectionUp(name string) bool {
	for _, bad := range []string{"miss", "stall", "page", "warn", "drop", "abandon", "retry", "evac", "migrat", "outage", "pressure", "dropped", "malformed"} {
		if containsWord(name, bad) {
			return true
		}
	}
	return false
}

func containsWord(s, sub string) bool {
	// plain substring match is enough for our snake_case series names
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// Compare joins current snapshots against a baseline by series key and
// returns the regressions: series whose summary degraded by more than
// tolerance (a fraction, e.g. 0.10) in the bad direction for their name,
// plus baseline series missing entirely from the current export. Absolute
// drifts below absFloor are ignored so near-zero baselines don't turn
// rounding noise into huge ratios.
func Compare(baseline, current []SeriesSnapshot, tolerance, absFloor float64) []Regression {
	if tolerance <= 0 {
		tolerance = 0.10
	}
	cur := make(map[string]*SeriesSnapshot, len(current))
	for i := range current {
		cur[current[i].key()] = &current[i]
	}
	var out []Regression
	for i := range baseline {
		b := &baseline[i]
		c, ok := cur[b.key()]
		if !ok {
			out = append(out, Regression{Key: b.key(), Baseline: b.summary(), Current: math.NaN()})
			continue
		}
		bv, cv := b.summary(), c.summary()
		diff := cv - bv
		if !badDirectionUp(b.Name) {
			diff = -diff // for good-up series, a drop is the regression
		}
		if diff <= absFloor {
			continue
		}
		limit := tolerance * math.Abs(bv)
		if limit < absFloor {
			limit = absFloor
		}
		if diff > limit {
			r := Regression{Key: b.key(), Baseline: bv, Current: cv}
			if bv != 0 {
				r.Ratio = cv / bv
			}
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
