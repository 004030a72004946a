package render

import (
	"testing"
	"time"
)

func TestEmptySlot(t *testing.T) {
	p := newPipeline(DefaultConfig(1))
	r := p.runSlot(nil, 16*time.Millisecond)
	if r.Completed != 0 || r.Missed != 0 || r.Makespan != 0 {
		t.Errorf("empty slot result = %+v", r)
	}
}

func TestSingleTileTiming(t *testing.T) {
	cfg := DefaultConfig(1)
	p := newPipeline(cfg)
	r := p.runSlot([]request{{User: 0, Level: 3}}, 16*time.Millisecond)
	want := cfg.RenderTime + cfg.EncodeBase + 2*encodePerLevel
	if r.Makespan != want {
		t.Errorf("makespan = %v, want %v", r.Makespan, want)
	}
	if r.Completed != 1 || r.Missed != 0 {
		t.Errorf("result = %+v", r)
	}
}

func TestDeadlineMiss(t *testing.T) {
	p := newPipeline(DefaultConfig(1))
	r := p.runSlot([]request{{Level: 6}}, time.Millisecond)
	if r.Missed != 1 || r.Completed != 0 {
		t.Errorf("tight deadline should miss: %+v", r)
	}
}

func TestParallelEncodersPipeline(t *testing.T) {
	// With 3 encoders and a serial render unit, 3 equal tiles finish at
	// render-staggered times, not serialized encodes.
	cfg := Config{
		GPUs:           1,
		EncodersPerGPU: 3,
		RenderTime:     time.Millisecond,
		EncodeBase:     5 * time.Millisecond,
	}
	p := newPipeline(cfg)
	r := p.runSlot(requestsFor(3, 1), 20*time.Millisecond)
	// Renders at 1,2,3 ms; encodes run in parallel: last done at 3+5 = 8ms.
	if want := 8 * time.Millisecond; r.Makespan != want {
		t.Errorf("makespan = %v, want %v", r.Makespan, want)
	}
}

func TestMoreGPUsNeverWorse(t *testing.T) {
	deadline := 1000 * time.Second / 60
	_ = deadline
	base := DefaultConfig(1)
	for load := 4; load <= 48; load += 8 {
		var prev float64 = 2
		for gpus := 1; gpus <= 6; gpus++ {
			cfg := base
			cfg.GPUs = gpus
			miss := newPipeline(cfg).missRate(load, 4, 4, time.Second/60)
			if miss > prev+1e-9 {
				t.Fatalf("load %d: miss rate rose from %v to %v at %d GPUs",
					load, prev, miss, gpus)
			}
			prev = miss
		}
	}
}

func TestHigherQualityEncodesSlower(t *testing.T) {
	p := newPipeline(DefaultConfig(2))
	lo := p.runSlot(requestsFor(12, 1), time.Second/60)
	hi := p.runSlot(requestsFor(12, 6), time.Second/60)
	if hi.Makespan <= lo.Makespan {
		t.Errorf("level 6 makespan %v should exceed level 1 %v", hi.Makespan, lo.Makespan)
	}
}

// TestDiscussionScenario quantifies the paper's Discussion claim: a single
// GPU cannot sustain online rendering for the full 15-user classroom at a
// 60 FPS deadline, but a multi-GPU server can.
func TestDiscussionScenario(t *testing.T) {
	deadline := time.Second / 60
	// 15 users x ~3 tiles at a medium level per slot.
	tiles := 45
	base := DefaultConfig(1)

	one := newPipeline(base).runSlot(requestsFor(tiles, 4), deadline)
	if one.Missed == 0 {
		t.Fatalf("one GPU should miss deadlines at 45 tiles/slot: %+v", one)
	}
	need := MinGPUsFor(base, tiles, 4, deadline, 16)
	if need <= 1 {
		t.Fatalf("MinGPUsFor = %d, want > 1", need)
	}
	if need > 16 {
		t.Fatalf("no feasible GPU count found")
	}
	cfg := base
	cfg.GPUs = need
	ok := newPipeline(cfg).runSlot(requestsFor(tiles, 4), deadline)
	if ok.Missed != 0 {
		t.Errorf("%d GPUs should meet every deadline: %+v", need, ok)
	}
	t.Logf("45 tiles/slot at level 4 needs %d GPUs for zero misses", need)
}

func TestMissRateBounds(t *testing.T) {
	p := newPipeline(DefaultConfig(2))
	if got := p.missRate(0, 10, 3, time.Second/60); got != 0 {
		t.Errorf("zero load miss rate = %v", got)
	}
	rate := p.missRate(30, 5, 3, time.Second/60)
	if rate < 0 || rate > 1 {
		t.Errorf("miss rate %v outside [0,1]", rate)
	}
}

func TestConfigClamping(t *testing.T) {
	p := newPipeline(Config{GPUs: 0, EncodersPerGPU: 0, EncodeBase: time.Millisecond})
	r := p.runSlot(requestsFor(2, 1), time.Second)
	if r.Completed != 2 {
		t.Errorf("clamped config should still schedule: %+v", r)
	}
}
