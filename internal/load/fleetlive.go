package load

import (
	"time"

	"repro/internal/client"
	"repro/internal/fleet"
	"repro/internal/fleet/coord"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/server"
)

// FleetLiveConfig parametrizes a live fleet execution: N real in-process
// server shards behind the fleet coordinator, one emulated client per
// session, migration over the reconnect/Welcome-resume path.
type FleetLiveConfig struct {
	// Live carries the per-shard engine knobs. Live.BudgetMbps is the
	// GLOBAL fleet budget; the rebalancer splits it. Live.Reconnect is
	// forced on — migration is a forced redial, so clients that cannot
	// reconnect cannot migrate. Server stall/slow-ACK chaos faults apply
	// to every shard (the injector is shared and thread-safe).
	Live LiveConfig
	// Shards is the shard count (default 3).
	Shards int
	// Scorer names the placement policy (fleet.ScorerByName).
	Scorer string
	// Recorder captures placement decisions; nil disables.
	Recorder *obs.PlacementRecorder
	// Health, when non-nil, receives the coordinator's per-shard and
	// fleet-aggregate series each tick (same store the shards' sampler
	// should write to, so /debug/health serves one document).
	Health *tsdb.Store
	// Sampler, when non-nil, runs one registry/SLO sampling pass per slot
	// on the coordinator's clock. Point it at the same store as Health.
	Sampler *tsdb.Sampler
	// Evac turns on the SLO-pressure evacuation loop on the live
	// coordinator (see fleet.EvacConfig).
	Evac fleet.EvacConfig
	// Coordinators is the coordinator replica count (default 1 — the
	// zero-cost single-replica path). The chaos profile's
	// coord_kill/coord_partition faults drive the replicas on the live slot
	// clock.
	Coordinators int
	// CoordDebug, when non-nil, receives the live fleet's coordinator
	// status producer as soon as the shards come up — the /debug/coord
	// hook. The producer is mutex-guarded and stays valid for the life of
	// the process, so an HTTP handler may call it mid-run.
	CoordDebug func(status func() coord.Status)
}

// RunLiveFleet executes the workload against a live shard fleet over
// loopback sockets. Arrivals are placed by the scorer, the coordinator
// ticks the rebalancer on the real slot clock, and the chaos profile's
// shard_kill/shard_drain faults kill or drain real servers mid-run — their
// sessions migrate to the survivors through the Welcome-resume path
// instead of being dropped.
func RunLiveFleet(w *Workload, cfg FleetLiveConfig) (*FleetReport, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 3
	}
	cfg.Coordinators = max(cfg.Coordinators, 1)
	if err := fleet.CheckProfile(cfg.Live.Chaos, cfg.Shards, cfg.Coordinators); err != nil {
		return nil, err
	}
	report := &FleetReport{RunReport: RunReport{Mode: "fleet-live"}}
	rig, err := newLiveRig(w, cfg.Live, &report.RunReport)
	if err != nil {
		return nil, err
	}
	cfg.Live = rig.cfg
	scorer, err := fleet.ScorerByName(cfg.Scorer)
	if err != nil {
		return nil, err
	}
	report.Scorer = scorer.Name()
	base := cfg.Live.serverConfig(w, nil, rig.nets) // per-shard allocators via NewAllocator

	live, err := fleet.NewLive(fleet.LiveConfig{
		Shards:           cfg.Shards,
		Base:             base,
		GlobalBudgetMbps: cfg.Live.BudgetMbps,
		NewAllocator:     cfg.Live.NewAllocator,
		Scorer:           scorer,
		Recorder:         cfg.Recorder,
		Health:           cfg.Health,
		Evac:             cfg.Evac,
		Coord:            coord.Config{Replicas: cfg.Coordinators},
	})
	if err != nil {
		return nil, err
	}
	if cfg.CoordDebug != nil {
		cfg.CoordDebug(live.CoordStatus)
	}

	launch := func(spec SessionSpec) {
		shard, err := live.Place(fleet.SessionInfo{
			ID:         spec.ID,
			Zone:       int(spec.ID) % cfg.Shards,
			DemandMbps: server.InitialUserMbps,
		})
		if err != nil {
			rig.mu.Lock()
			report.Failed++
			report.PlacementsFailed++
			rig.mu.Unlock()
			rig.lm.failed.Inc()
			cfg.Live.Logf("loadgen: session %d: %v", spec.ID, err)
			return
		}
		rig.run(spec.ID, func() (*client.Result, error) {
			defer live.Forget(spec.ID)
			ccfg := cfg.Live.clientConfig(w, spec, live.ShardAddr(shard))
			// Migration is a forced redial: reconnect is not optional in a
			// fleet, and the Redirect hook tracks the owning shard.
			ccfg.Reconnect = true
			ccfg.Redirect = func() string { return live.Addr(spec.ID) }
			return client.Run(ccfg)
		})
	}

	ticker := time.NewTicker(cfg.Live.SlotDuration)
	for slot := 0; slot < w.Cfg.HorizonSlots; slot++ {
		now := <-ticker.C
		// Faults land before this slot's placements and tick, like the
		// virtual-time engine: a leader killed here is already dead when the
		// fleet proposes, and an arrival never lands on a shard dying now.
		live.ApplyFaults(cfg.Live.Chaos, slot)
		rig.arrive(slot, now, launch)
		live.Tick(slot)
		// Registry/SLO sampling rides the coordinator's clock so the
		// stored series share the fleet series' slot axis.
		cfg.Sampler.Sample(int64(slot))
	}
	ticker.Stop()

	if cfg.Live.DrainTimeout > 0 {
		if !live.Drain(cfg.Live.DrainTimeout) {
			cfg.Live.Logf("loadgen: fleet drain timed out with unflushed sessions")
		}
	}
	if err := live.Close(); err != nil {
		cfg.Live.Logf("loadgen: fleet close: %v", err)
	}
	rig.finish()
	report.setControl(live.Outcome())
	return report, nil
}
