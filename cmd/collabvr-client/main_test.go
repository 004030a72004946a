package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/motion"
	"repro/internal/server"
)

func TestClientJoinsRealServer(t *testing.T) {
	cfg := server.DefaultConfig(core.NewSolverAllocator())
	cfg.SlotDuration = 3 * time.Millisecond
	cfg.TotalSlots = 40
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-server", srv.ControlAddr(),
			"-user", "1", "-slotms", "3", "-seconds", "1",
		})
	}()
	<-srv.Done()
	srv.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client did not finish")
	}
}

func TestClientLoadsTraceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")
	tr := motion.Generate(motion.Scenes()[0], 1, 50, 60, 1)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfg := server.DefaultConfig(core.NewSolverAllocator())
	cfg.SlotDuration = 3 * time.Millisecond
	cfg.TotalSlots = 20
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-server", srv.ControlAddr(),
			"-user", "2", "-slotms", "3", "-trace", path,
		})
	}()
	<-srv.Done()
	srv.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestClientMissingTraceFile(t *testing.T) {
	if err := run([]string{"-trace", "/nonexistent/file.csv"}); err == nil {
		t.Fatal("missing trace file should error")
	}
}

func TestClientBadFlags(t *testing.T) {
	if err := run([]string{"-user", "x"}); err == nil {
		t.Fatal("bad flag should error")
	}
}

// TestClientRejectsBadInput: values that would panic or join as another
// user are errors before the client dials anything.
func TestClientRejectsBadInput(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"zero slotms":      {[]string{"-slotms", "0"}, "-slotms"},
		"negative slotms":  {[]string{"-slotms", "-4"}, "-slotms"},
		"zero seconds":     {[]string{"-seconds", "0"}, "-seconds"},
		"negative seconds": {[]string{"-seconds", "-1"}, "-seconds"},
		"user past uint32": {[]string{"-user", "4294967296"}, "-user"},
	} {
		err := run(append([]string{"-server", "127.0.0.1:1"}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %s", name, err, tc.want)
		}
	}
}
