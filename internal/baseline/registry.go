package baseline

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// allocators is the one name -> constructor table behind every -algo flag
// and testbed.RunAll. It lives here because this package sees both
// Algorithm 1 (core) and the baselines; core cannot import baseline. Every
// constructor returns a fresh value: the solver-backed allocators keep
// scratch, so callers build one per goroutine.
var allocators = []struct {
	name string
	make func() core.Allocator
}{
	{"dvgreedy", func() core.Allocator { return core.NewSolverAllocator() }},
	{"proposed", func() core.Allocator { return core.NewSolverAllocator() }}, // dvgreedy under the paper's figure label
	{"density", func() core.Allocator { return core.DensityOnly{} }},
	{"value", func() core.Allocator { return core.ValueOnly{} }},
	{"optimal", func() core.Allocator { return core.Optimal{} }},
	{"firefly", func() core.Allocator { return NewFirefly() }},
	{"pavq", func() core.Allocator { return NewPAVQ() }},
	{"uniform", func() core.Allocator { return newUniform() }},
}

// AllocatorNames lists the registered allocator names in table order.
func AllocatorNames() []string {
	names := make([]string, len(allocators))
	for i, a := range allocators {
		names[i] = a.name
	}
	return names
}

// Constructor returns the constructor registered under name. The error for
// an unknown name lists the valid ones.
func Constructor(name string) (func() core.Allocator, error) {
	for _, a := range allocators {
		if a.name == name {
			return a.make, nil
		}
	}
	return nil, fmt.Errorf("unknown allocator %q (valid: %s)", name, strings.Join(AllocatorNames(), ", "))
}
