// Package render models the online rendering-and-encoding pipeline the
// paper's Discussion section sketches as future work: instead of serving
// offline pre-rendered tiles, the server renders each requested tile with
// Unity and encodes it with an NVENC-class hardware encoder in real time.
// The paper observes that "the overhead of rendering and encoding for
// multiple quality levels makes it difficult to meet the synchronization
// performance" and proposes coordinating "multiple GPUs in a server to
// enable multiple encoders working in parallel with the rendering".
//
// Pipeline simulates exactly that: G GPUs, each with one render unit and E
// parallel encoder sessions, processing a slot's tile requests under the
// slot deadline. It answers the design question the paper leaves open: how
// many GPUs does a given user population need before online rendering
// stops missing deadlines?
package render

import (
	"sort"
	"time"
)

// request is one tile to render and encode in a slot.
type request struct {
	User  uint32
	Level int // quality level; higher levels encode slower
}

// Config describes the rendering cluster.
type Config struct {
	// GPUs is the number of GPUs; each renders sequentially but encodes on
	// EncodersPerGPU parallel NVENC sessions.
	GPUs int
	// EncodersPerGPU is the number of parallel encoder sessions per GPU.
	EncodersPerGPU int
	// RenderTime is the per-tile render cost on a GPU's render unit.
	RenderTime time.Duration
	// EncodeBase is the encode time of a level-1 tile; each level adds
	// encodePerLevel (higher quality = higher bitrate = slower encode).
	EncodeBase time.Duration
}

// encodePerLevel is the encode time each quality level adds to EncodeBase.
const encodePerLevel = 500 * time.Microsecond

// DefaultConfig models a workstation like the paper's (4 x RTX-class GPUs):
// 1.5 ms render and 2-4.5 ms encode per tile at 60 FPS tiles.
func DefaultConfig(gpus int) Config {
	if gpus <= 0 {
		gpus = 1
	}
	return Config{
		GPUs:           gpus,
		EncodersPerGPU: 3,
		RenderTime:     1500 * time.Microsecond,
		EncodeBase:     2 * time.Millisecond,
	}
}

// result summarizes one slot's pipeline execution.
type result struct {
	// Completed is the number of tiles that finished by the deadline.
	Completed int
	// Missed is the number that did not.
	Missed int
	// Makespan is when the last tile finished (even past the deadline).
	Makespan time.Duration
}

// pipeline is a deterministic discrete-event model of the cluster.
type pipeline struct {
	cfg Config
}

// newPipeline validates and returns a pipeline.
func newPipeline(cfg Config) *pipeline {
	if cfg.GPUs <= 0 {
		cfg.GPUs = 1
	}
	if cfg.EncodersPerGPU <= 0 {
		cfg.EncodersPerGPU = 1
	}
	return &pipeline{cfg: cfg}
}

// encodeTime returns the encode duration of a tile at the given level.
func (p *pipeline) encodeTime(level int) time.Duration {
	if level < 1 {
		level = 1
	}
	return p.cfg.EncodeBase + time.Duration(level-1)*encodePerLevel
}

// runSlot schedules the requests across the cluster with greedy
// earliest-available list scheduling (tiles sorted by encode time, longest
// first) and reports how many finish within the deadline. Rendering and
// encoding pipeline: a tile's encode can start as soon as its render
// finishes and an encoder session on the same GPU is free.
func (p *pipeline) runSlot(reqs []request, deadline time.Duration) result {
	if len(reqs) == 0 {
		return result{}
	}
	// Longest-processing-time-first improves the makespan of list
	// scheduling.
	sorted := make([]request, len(reqs))
	copy(sorted, reqs)
	sort.SliceStable(sorted, func(i, j int) bool {
		return p.encodeTime(sorted[i].Level) > p.encodeTime(sorted[j].Level)
	})

	renderFree := make([]time.Duration, p.cfg.GPUs)
	encoderFree := make([][]time.Duration, p.cfg.GPUs)
	for g := range encoderFree {
		encoderFree[g] = make([]time.Duration, p.cfg.EncodersPerGPU)
	}

	var res result
	for _, req := range sorted {
		// Pick the GPU whose pipeline finishes this tile earliest.
		bestGPU, bestEnc := 0, 0
		var bestDone time.Duration = 1 << 62
		for g := 0; g < p.cfg.GPUs; g++ {
			renderDone := renderFree[g] + p.cfg.RenderTime
			for e := 0; e < p.cfg.EncodersPerGPU; e++ {
				start := renderDone
				if encoderFree[g][e] > start {
					start = encoderFree[g][e]
				}
				done := start + p.encodeTime(req.Level)
				if done < bestDone {
					bestDone = done
					bestGPU, bestEnc = g, e
				}
			}
		}
		renderFree[bestGPU] += p.cfg.RenderTime
		encoderFree[bestGPU][bestEnc] = bestDone
		if bestDone <= deadline {
			res.Completed++
		} else {
			res.Missed++
		}
		if bestDone > res.Makespan {
			res.Makespan = bestDone
		}
	}
	return res
}

// missRate runs a sustained workload (tilesPerSlot requests each slot for
// the given number of slots; the cluster state resets per slot, as renders
// target the next display deadline) and returns the deadline-miss fraction.
func (p *pipeline) missRate(tilesPerSlot, slots int, level int, deadline time.Duration) float64 {
	if tilesPerSlot <= 0 || slots <= 0 {
		return 0
	}
	reqs := make([]request, tilesPerSlot)
	for i := range reqs {
		reqs[i] = request{User: uint32(i), Level: level}
	}
	var missed, total int
	for s := 0; s < slots; s++ {
		r := p.runSlot(reqs, deadline)
		missed += r.Missed
		total += r.Missed + r.Completed
	}
	return float64(missed) / float64(total)
}

// MinGPUsFor searches for the smallest GPU count (up to maxGPUs) whose
// pipeline sustains the workload with zero deadline misses, answering the
// Discussion's provisioning question. Returns maxGPUs+1 if none suffices.
func MinGPUsFor(base Config, tilesPerSlot, level int, deadline time.Duration, maxGPUs int) int {
	for g := 1; g <= maxGPUs; g++ {
		cfg := base
		cfg.GPUs = g
		p := newPipeline(cfg)
		r := p.runSlot(requestsFor(tilesPerSlot, level), deadline)
		if r.Missed == 0 {
			return g
		}
	}
	return maxGPUs + 1
}

func requestsFor(n, level int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{User: uint32(i), Level: level}
	}
	return reqs
}
