package core

import "repro/internal/estimate"

// Tracker maintains the per-user streaming state the per-slot objective
// needs: the running mean qbar_n(t-1) of successfully-viewed quality, the
// empirical prediction-success probability delta_n, and the realized QoE
// components. It is the online counterpart of the Welford decomposition of
// eq. (4): feeding its MeanQ/Delta into Objective reproduces the per-slot
// terms whose sum telescopes to T*sigma^2(T).
type Tracker struct {
	params Params
	users  []userState
}

// ViewState is one user's streaming state behind h_n: the slots observed,
// the sum of successfully-viewed quality and the count of covered slots.
// It is the single definition of delta_n and qbar_n(t-1); Tracker, the
// virtual-time sessions and the live server's sessions all embed it, and a
// session handoff copies it whole.
type ViewState struct {
	T          int     // observed slots
	SumViewedQ float64 // sum of q*1
	Covered    int     // count of 1_n(t) = 1
}

// Delta returns the running estimate of the prediction success probability
// delta_n: the covered fraction with one optimistic pseudo-observation, so a
// fresh user starts at 1.
func (s *ViewState) Delta() float64 { return s.delta(1) }

func (s *ViewState) delta(prior float64) float64 {
	return (prior + float64(s.Covered)) / float64(1+s.T)
}

// MeanQ returns qbar_n(t-1): the running mean of successfully-viewed
// quality, 0 before any observation.
func (s *ViewState) MeanQ() float64 {
	if s.T == 0 {
		return 0
	}
	return s.SumViewedQ / float64(s.T)
}

// Observe folds in one slot's outcome: level q was delivered, and covered
// says whether the delivered portion covered the actual FoV.
func (s *ViewState) Observe(q int, covered bool) {
	s.T++
	if covered {
		s.Covered++
		s.SumViewedQ += float64(q)
	}
}

type userState struct {
	ViewState
	deltaPrior float64
	viewedVar  estimate.Welford
	delaySum   float64
}

// NewTracker returns a tracker for n users. deltaPrior seeds the prediction
// success estimate before any observation (the paper estimates delta_n by
// its running average, which "converges to delta_n as t -> infinity").
func NewTracker(params Params, n int, deltaPrior float64) *Tracker {
	if deltaPrior < 0 {
		deltaPrior = 0
	}
	if deltaPrior > 1 {
		deltaPrior = 1
	}
	users := make([]userState, n)
	for i := range users {
		users[i].deltaPrior = deltaPrior
	}
	return &Tracker{params: params, users: users}
}

// Slot returns the 1-based index of the next slot to allocate.
func (tr *Tracker) Slot() int {
	if len(tr.users) == 0 {
		return 1
	}
	return tr.users[0].T + 1
}

// MeanQ returns qbar_n(t-1) for user n: the running mean of successfully-
// viewed quality, 0 before any observation.
func (tr *Tracker) MeanQ(n int) float64 { return tr.users[n].MeanQ() }

// Delta returns the running estimate of the prediction success probability
// for user n, blending the prior with observations (Laplace-style smoothing
// with one pseudo-observation).
func (tr *Tracker) Delta(n int) float64 {
	u := &tr.users[n]
	return u.delta(u.deltaPrior)
}

// Record stores the outcome of one slot for user n: the allocated level q,
// whether the delivered portion covered the actual FoV, and the realized
// delivery delay.
func (tr *Tracker) Record(n, q int, covered bool, delay float64) {
	u := &tr.users[n]
	u.Observe(q, covered)
	viewedQ := 0.0
	if covered {
		viewedQ = float64(q)
	}
	u.viewedVar.Add(viewedQ)
	u.delaySum += delay
}
