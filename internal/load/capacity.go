package load

import (
	"fmt"
	"strings"
)

// ProbeFunc runs one load probe with n concurrent sessions and returns the
// aggregate deadline-miss rate it measured.
type ProbeFunc func(n int) (missRate float64, err error)

// probeSample is one capacity-search measurement.
type probeSample struct {
	Sessions int
	MissRate float64
	OK       bool // miss rate at or below target
}

// CapacityResult is the outcome of a capacity search.
type CapacityResult struct {
	// MaxSessions is the largest probed session count whose miss rate
	// stayed at or below Target (0 if even Lo failed).
	MaxSessions int
	Target      float64
	Probes      []probeSample
	// CappedAtHi reports that every probe up to the search ceiling passed,
	// so the true capacity lies at or above MaxSessions.
	CappedAtHi bool
}

// Format renders the probe ladder and the verdict.
func (r *CapacityResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# capacity search (deadline-miss target %.4f)\n", r.Target)
	fmt.Fprintf(&b, "%10s %12s %6s\n", "sessions", "miss_rate", "ok")
	for _, p := range r.Probes {
		fmt.Fprintf(&b, "%10d %12.4f %6v\n", p.Sessions, p.MissRate, p.OK)
	}
	switch {
	case r.MaxSessions == 0:
		fmt.Fprintf(&b, "capacity: below the search floor (miss rate above target at the smallest probe)\n")
	case r.CappedAtHi:
		fmt.Fprintf(&b, "capacity: >= %d sessions (search ceiling reached)\n", r.MaxSessions)
	default:
		fmt.Fprintf(&b, "capacity: %d concurrent sessions\n", r.MaxSessions)
	}
	return b.String()
}

// FindCapacity binary-searches the maximum concurrent session count whose
// deadline-miss rate stays at or below target. It first doubles from lo
// until a probe fails (or hi is reached), then bisects the bracket. Probe
// results are assumed monotone in n up to noise; the search always
// terminates in O(log(hi/lo)) probes.
func FindCapacity(lo, hi int, target float64, probe ProbeFunc) (*CapacityResult, error) {
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	res := &CapacityResult{Target: target}
	run := func(n int) (bool, error) {
		miss, err := probe(n)
		if err != nil {
			return false, fmt.Errorf("load: probe at %d sessions: %w", n, err)
		}
		ok := miss <= target
		res.Probes = append(res.Probes, probeSample{Sessions: n, MissRate: miss, OK: ok})
		return ok, nil
	}

	ok, err := run(lo)
	if err != nil {
		return nil, err
	}
	if !ok {
		return res, nil // MaxSessions stays 0: not sustainable even at lo
	}
	good, bad := lo, 0
	for n := lo; n < hi; {
		n *= 2
		if n > hi {
			n = hi
		}
		ok, err := run(n)
		if err != nil {
			return nil, err
		}
		if ok {
			good = n
		} else {
			bad = n
			break
		}
	}
	if bad == 0 {
		res.MaxSessions = good
		res.CappedAtHi = true
		return res, nil
	}
	for bad-good > 1 {
		mid := good + (bad-good)/2
		ok, err := run(mid)
		if err != nil {
			return nil, err
		}
		if ok {
			good = mid
		} else {
			bad = mid
		}
	}
	res.MaxSessions = good
	return res, nil
}
