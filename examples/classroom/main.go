// Classroom: the paper's motivating scenario — a VR classroom where a
// teacher and several students share a scene through an edge server — run
// live over loopback sockets. One edge server allocates quality with
// Algorithm 1 every slot; five emulated devices (one teacher, four
// students) behind one router with heterogeneous wireless throttles replay
// motion traces, stream tiles over the RTP-like transport, and report their
// QoE at the end of the lesson.
//
// Run with:
//
//	go run ./examples/classroom
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/load"
)

const (
	users        = 5 // teacher + 4 students
	slots        = 600
	slotDuration = 8 * time.Millisecond
)

func main() {
	// Everyone is in the same scene for the whole lesson.
	w := &load.Workload{Cfg: load.Config{Seed: 42, HorizonSlots: slots, SlotsPerSecond: 1 / slotDuration.Seconds()}}
	for u := 0; u < users; u++ {
		w.Sessions = append(w.Sessions, load.SessionSpec{ID: uint32(u), DepartSlot: slots, MotionSeed: 42})
	}
	fmt.Printf("classroom: %d devices, %d slots at %v\n", users, slots, slotDuration)
	rep, err := load.RunLive(w, load.LiveConfig{
		BudgetMbps:   36 * users,
		SlotDuration: slotDuration,
		Topology:     &load.Topology{Routers: 1, Throttles: []float64{60, 50, 45, 40, 55}},
	})
	if err == nil && rep.Failed > 0 {
		err = fmt.Errorf("%d of %d devices failed", rep.Failed, users)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "classroom:", err)
		os.Exit(1)
	}

	fmt.Printf("\n%-10s %10s %10s %12s %10s %8s\n", "user", "QoE", "quality", "delay(ms)", "variance", "FPS")
	for _, o := range rep.Outcomes {
		role := "student"
		if o.ID == 0 {
			role = "teacher"
		}
		fmt.Printf("%-10s %10.4f %10.4f %12.4f %10.4f %8.1f\n", fmt.Sprintf("%s-%d", role, o.ID),
			o.QoE, o.Quality, o.DelayMs, o.Variance, (1-o.MissFrac)/slotDuration.Seconds())
	}
}
