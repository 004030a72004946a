package load

// arrivalIndex lists a workload's sessions by arrival slot: a stable
// counting sort, so within a slot they keep the workload's order (a
// replayed JSONL workload need not be sorted). Two allocations, whatever
// the horizon.
type arrivalIndex struct {
	specs []SessionSpec
	start []int32 // slot t's arrivals are specs[start[t]:start[t+1]]
}

// indexArrivals indexes the sessions arriving in [0, horizon); the rest
// never arrive.
func indexArrivals(sessions []SessionSpec, horizon int) arrivalIndex {
	start := make([]int32, horizon+1)
	arrives := func(s *SessionSpec) bool { return s.ArriveSlot >= 0 && s.ArriveSlot < horizon }
	for i := range sessions {
		if s := &sessions[i]; arrives(s) {
			start[s.ArriveSlot+1]++
		}
	}
	for t := 1; t <= horizon; t++ {
		start[t] += start[t-1]
	}
	// Place each session at its slot's cursor, which leaves start[t] at
	// slot t's end, that is slot t+1's start; shift back by one slot.
	specs := make([]SessionSpec, start[horizon])
	for i := range sessions {
		if s := &sessions[i]; arrives(s) {
			specs[start[s.ArriveSlot]] = *s
			start[s.ArriveSlot]++
		}
	}
	copy(start[1:], start[:horizon])
	start[0] = 0
	return arrivalIndex{specs: specs, start: start}
}

// at returns the sessions arriving at slot.
func (a *arrivalIndex) at(slot int) []SessionSpec {
	return a.specs[a.start[slot]:a.start[slot+1]]
}
