package load

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/netem"
)

// topoWorkload is n sessions present from slot 0 to the horizon.
func topoWorkload(n, slots int) *Workload {
	w := &Workload{Cfg: Config{Shape: Steady, Seed: 5, HorizonSlots: slots, SlotsPerSecond: 60, Sessions: n}}
	for i := 0; i < n; i++ {
		w.Sessions = append(w.Sessions, SessionSpec{ID: uint32(i), DepartSlot: slots})
	}
	return w
}

func testTopology(fade float64) *Topology {
	return &Topology{Routers: 2, Throttles: []float64{40, 45, 50, 55, 60}, Fade: fade}
}

func TestTopologyCapsDeterministicPerSeed(t *testing.T) {
	topo := testTopology(0.3)
	a := topo.caps(15, 1200, 7)
	if !reflect.DeepEqual(a, topo.caps(15, 1200, 7)) {
		t.Fatal("same seed drew two cap tables")
	}
	if reflect.DeepEqual(a, topo.caps(15, 1200, 8)) {
		t.Error("seeds 7 and 8 drew the same cap table")
	}
	// Draws are interval-major, so a shorter table is a prefix.
	short := topo.caps(15, 95, 7)
	for i := range short {
		if !reflect.DeepEqual(short[i], a[i][:95]) {
			t.Fatalf("session %d: the 95-slot table is not a prefix of the 1200-slot one", i)
		}
	}
}

func TestTopologyCapsShape(t *testing.T) {
	for _, fade := range []float64{0.05, 0.1, 0.3, 1, 5} {
		topo := testTopology(fade)
		for seed := int64(1); seed <= 20; seed++ {
			faded := false
			for i, row := range topo.caps(15, 1200, seed) {
				throttle := topo.Throttles[i%len(topo.Throttles)]
				for s, c := range row {
					if s < fadeInterval && c != throttle {
						t.Fatalf("fade %v seed %d session %d slot %d: %v, want the throttle %v", fade, seed, i, s, c, throttle)
					}
					if first := row[s-s%fadeInterval]; c != first {
						t.Fatalf("fade %v seed %d session %d: slot %d reads %v, its interval began at %v", fade, seed, i, s, c, first)
					}
					if c < 0.05*throttle {
						t.Fatalf("fade %v seed %d session %d slot %d: %v below 0.05 x %v", fade, seed, i, s, c, throttle)
					}
					faded = faded || c != throttle
				}
			}
			if !faded {
				t.Errorf("fade %v seed %d: every link held its throttle", fade, seed)
			}
		}
	}
}

func TestTopologyCapsFlatWithoutFade(t *testing.T) {
	topo := testTopology(0)
	for i, row := range topo.caps(7, 300, 3) {
		for s, c := range row {
			if want := topo.Throttles[i%len(topo.Throttles)]; c != want {
				t.Fatalf("session %d slot %d: %v, want %v", i, s, c, want)
			}
		}
	}
}

func TestTopologyAssignsRoundRobin(t *testing.T) {
	topo := testTopology(0.3)
	w := topoWorkload(12, 50)
	nets, err := newSessionNets(w, LiveConfig{BudgetMbps: 800, Topology: topo}, time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	routers := map[*netem.TokenBucket]int{}
	for i, spec := range w.Sessions {
		n := nets[spec.ID]
		if want := topo.Throttles[i%len(topo.Throttles)]; n.caps[0] != want || n.bucket.Rate() != want {
			t.Errorf("session %d: link %v (bucket %v), want %v", i, n.caps[0], n.bucket.Rate(), want)
		}
		if prev, ok := routers[n.router]; ok && prev != i%topo.Routers {
			t.Errorf("session %d shares router %d's bucket", i, prev)
		}
		routers[n.router] = i % topo.Routers
		if n.router.Rate() != 400 {
			t.Errorf("session %d: router at %v Mbps, want 800/2", i, n.router.Rate())
		}
	}
	if len(routers) != topo.Routers {
		t.Errorf("%d router buckets, want %d", len(routers), topo.Routers)
	}
}

// TestSessionNetWaitsForNarrowRouter: a session's packet waits for the
// slower of its link and its router, so once a router narrower than the
// link has spent its burst, the router's wait is the one returned.
func TestSessionNetWaitsForNarrowRouter(t *testing.T) {
	t0 := time.Unix(1000, 0)
	topo := &Topology{Routers: 1, Throttles: []float64{80}}
	nets, err := newSessionNets(topoWorkload(1, 60), LiveConfig{BudgetMbps: 8, Topology: topo}, t0)
	if err != nil {
		t.Fatal(err)
	}
	n := nets[0]
	router := netem.NewTokenBucket(8, routerBurst, t0)
	link := netem.NewTokenBucket(80, linkBurst, t0)
	var got, rw, lw time.Duration
	for i := 0; i < 40; i++ {
		at := t0.Add(time.Duration(i) * 50 * time.Microsecond)
		rw, lw = router.Admit(1200, at), link.Admit(1200, at)
		if got = n.Admit(1200, at); got != max(rw, lw) {
			t.Fatalf("packet %d: waited %v; router %v, link %v", i, got, rw, lw)
		}
	}
	if rw <= lw || got != rw {
		t.Fatalf("last packet: waited %v; router %v should hold it back longer than the link's %v", got, rw, lw)
	}
}

func TestTopologyRejectsBadConfig(t *testing.T) {
	w := topoWorkload(2, 30)
	for name, cfg := range map[string]LiveConfig{
		"unshaped":     {Unshaped: true, Topology: testTopology(0)},
		"no routers":   {Topology: &Topology{Throttles: []float64{50}}},
		"no throttles": {Topology: &Topology{Routers: 1}},
	} {
		if _, err := RunLive(w, cfg); err == nil {
			t.Errorf("%s: RunLive accepted the topology", name)
		}
	}
}
