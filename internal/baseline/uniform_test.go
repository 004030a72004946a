package baseline

import (
	"testing"

	"repro/internal/core"
)

func TestUniformPicksHighestFeasibleCommonLevel(t *testing.T) {
	params := core.DefaultSimParams()
	u := newUniform()
	users := []core.UserInput{
		mm1User(1, 0, 100, 1),
		mm1User(1, 0, 100, 1),
	}
	// Ladder {2,4,7,12,20,33}: two users at level 4 cost 24 <= 30; level 5
	// costs 40 > 30.
	a := u.Allocate(params, slotProblem(1, 30, users...))
	for i, l := range a.Levels {
		if l != 4 {
			t.Errorf("user %d level = %d, want 4", i, l)
		}
	}
}

func TestUniformLimitedByWeakestLink(t *testing.T) {
	params := core.DefaultSimParams()
	u := newUniform()
	users := []core.UserInput{
		mm1User(1, 0, 100, 1),
		mm1User(1, 0, 5, 1), // weak link: only level 2 (rate 4) fits its cap
	}
	a := u.Allocate(params, slotProblem(1, 1000, users...))
	for i, l := range a.Levels {
		if l != 2 {
			t.Errorf("user %d level = %d, want 2 (weakest-link bound)", i, l)
		}
	}
}

func TestUniformFallsBackToBase(t *testing.T) {
	params := core.DefaultSimParams()
	u := newUniform()
	a := u.Allocate(params, slotProblem(1, 0.5, mm1User(1, 0, 100, 1)))
	if a.Levels[0] != 1 {
		t.Errorf("level = %d, want 1 under tiny budget", a.Levels[0])
	}
}

func TestUniformLosesToProposed(t *testing.T) {
	// Heterogeneous links: equal treatment wastes the strong user's link.
	params := core.DefaultSimParams()
	users := []core.UserInput{
		mm1User(0.95, 3, 100, 1),
		mm1User(0.95, 3, 10, 1),
	}
	p := slotProblem(50, 60, users...)
	uni := newUniform().Allocate(params, p)
	dv := core.NewSolverAllocator().Allocate(params, p)
	if dv.Value <= uni.Value {
		t.Errorf("proposed %v should beat uniform %v on heterogeneous links",
			dv.Value, uni.Value)
	}
}

func TestUniformName(t *testing.T) {
	if newUniform().Name() != "uniform" {
		t.Error("name wrong")
	}
}
