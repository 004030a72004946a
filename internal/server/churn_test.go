package server

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport"
)

func sessionCount(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestServerRetiresDepartedSessions is the churn contract: a session whose
// control connection drops must leave the slot loop's session map, so a
// long-lived server under arrival/departure churn does not leak sessions.
func TestServerRetiresDepartedSessions(t *testing.T) {
	base := obs.LeakSnapshot()
	cfg := DefaultConfig(core.NewSolverAllocator())
	cfg.SlotDuration = 5 * time.Millisecond
	cfg.Metrics = obs.NewRegistry()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	f1 := dialFake(t, srv, 1)
	f2 := dialFake(t, srv, 2)
	defer f2.close()
	waitFor(t, "both sessions admitted", func() bool { return sessionCount(srv) == 2 })

	f1.close()
	waitFor(t, "departed session retired", func() bool { return sessionCount(srv) == 1 })
	if got := cfg.Metrics.Counter("collabvr_server_sessions_left_total").Value(); got != 1 {
		t.Errorf("sessions_left_total = %d, want 1", got)
	}
	if got := cfg.Metrics.Gauge("collabvr_server_sessions_active").Value(); got != 1 {
		t.Errorf("sessions_active = %v, want 1", got)
	}
	f2.close()
	srv.Close()
	obs.AssertNoLeaks(t, base)
}

// TestServerReconnectSupersedes: a second Hello with the same user ID takes
// over the session; the stale connection is closed rather than leaking.
func TestServerReconnectSupersedes(t *testing.T) {
	base := obs.LeakSnapshot()
	cfg := DefaultConfig(core.NewSolverAllocator())
	cfg.SlotDuration = 5 * time.Millisecond
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	f1 := dialFake(t, srv, 7)
	defer f1.close()
	waitFor(t, "first session", func() bool { return sessionCount(srv) == 1 })

	f2 := dialFake(t, srv, 7)
	defer f2.close()
	// The old control connection must be closed by the server.
	f1.ctrl.SetDeadline(time.Now().Add(2 * time.Second))
	for {
		if _, err := f1.ctrl.Recv(); err != nil {
			break
		}
	}
	if n := sessionCount(srv); n != 1 {
		t.Errorf("session count after reconnect = %d, want 1", n)
	}
	// The superseded session's goroutines must be gone once the server
	// shuts down — supersede-then-close is the classic leak shape.
	f2.close()
	srv.Close()
	obs.AssertNoLeaks(t, base)
}

// TestServerMaxSessionsBackpressure: beyond MaxSessions the accept path
// closes the connection without a Welcome, and admitted sessions are
// unaffected.
func TestServerMaxSessionsBackpressure(t *testing.T) {
	cfg := DefaultConfig(core.NewSolverAllocator())
	cfg.SlotDuration = 5 * time.Millisecond
	cfg.MaxSessions = 1
	cfg.Metrics = obs.NewRegistry()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	f1 := dialFake(t, srv, 1)
	defer f1.close()
	waitFor(t, "first session admitted", func() bool { return sessionCount(srv) == 1 })
	f1.ctrl.SetDeadline(time.Now().Add(2 * time.Second))
	if msg, err := f1.ctrl.Recv(); err != nil {
		t.Fatalf("admitted client should get a Welcome: %v", err)
	} else if w, ok := msg.(transport.Welcome); !ok || w.User != 1 {
		t.Fatalf("admitted client got %#v, want Welcome{User:1}", msg)
	}

	f2 := dialFake(t, srv, 2)
	defer f2.close()
	f2.ctrl.SetDeadline(time.Now().Add(2 * time.Second))
	if msg, err := f2.ctrl.Recv(); err == nil {
		t.Fatalf("rejected client should see its connection closed, got %#v", msg)
	}
	waitFor(t, "rejection counted", func() bool {
		return cfg.Metrics.Counter("collabvr_server_sessions_rejected_total").Value() == 1
	})
	if n := sessionCount(srv); n != 1 {
		t.Errorf("session count = %d, want 1", n)
	}
}
