package load

import "repro/internal/randsrc"

// Topology is the paper's physical testbed (Section VI) as a value. Session
// i of the workload has a link throttled to Throttles[i % len] Mbps (the
// paper's Linux TC limits, round-robin) behind router i % Routers, one of
// Routers shared buckets that split LiveConfig.BudgetMbps evenly. Fade is
// the amplitude of the wireless interference on the links: every
// fadeInterval slots each link draws small noise and may enter a sustained
// fade whose probability and depth grow with Fade; 0 holds every link at
// its throttle.
type Topology struct {
	Routers   int
	Throttles []float64
	Fade      float64
}

const (
	// linkBurst is a session bucket's burst: a few MTUs, so pacing rather
	// than burst absorption shapes the stream, as on a real throttled link
	// (the client's packet-spacing delay and the server's goodput read it).
	linkBurst    = 4 << 10
	routerBurst  = 16 << 10
	fadeInterval = 10
)

// caps is the links' capacity in Mbps, table[session][slot], over slots
// [0, slots), drawn from seed. The first interval runs at the throttle;
// each later one draws, session by session, whether a 4-12 interval fade
// starts and the interval's factor, so a shorter table is a prefix.
func (t *Topology) caps(sessions, slots int, seed int64) [][]float64 {
	table := make([][]float64, sessions)
	for i := range table {
		table[i] = make([]float64, slots)
		for s := range table[i] {
			table[i][s] = t.Throttles[i%len(t.Throttles)]
		}
	}
	if t.Fade == 0 {
		return table
	}
	rng := randsrc.NewRand(seed)
	fadeLeft := make([]int, sessions) // intervals left in the current fade
	fadeDepth := make([]float64, sessions)
	floor := max(1-2.8*t.Fade, 0.1)
	for from := fadeInterval; from < slots; from += fadeInterval {
		for i, row := range table {
			if fadeLeft[i] > 0 {
				fadeLeft[i]--
			} else if rng.Float64() < t.Fade*0.25 {
				fadeLeft[i] = 4 + rng.Intn(9)
				fadeDepth[i] = max(floor+rng.Float64()*(0.6-floor), floor)
			}
			factor := 1 + rng.NormFloat64()*0.08
			if fadeLeft[i] > 0 {
				factor = fadeDepth[i] * (1 + rng.NormFloat64()*0.05)
			}
			for s := from; s < min(from+fadeInterval, slots); s++ {
				row[s] *= max(factor, 0.05)
			}
		}
	}
	return table
}
