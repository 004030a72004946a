package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/motion"
	"repro/internal/nettrace"
)

func TestGeneratesLoadableTraces(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-out", dir, "-users", "3", "-seconds", "2", "-nettraces", "4",
	})
	if err != nil {
		t.Fatal(err)
	}

	motions, err := filepath.Glob(filepath.Join(dir, "motion-user*.csv"))
	if err != nil || len(motions) != 3 {
		t.Fatalf("motion traces = %d (%v), want 3", len(motions), err)
	}
	f, err := os.Open(motions[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := motion.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 120 {
		t.Errorf("trace slots = %d, want 120", len(tr))
	}

	nets, err := filepath.Glob(filepath.Join(dir, "net-*.csv"))
	if err != nil || len(nets) != 4 {
		t.Fatalf("net traces = %d (%v), want 4", len(nets), err)
	}
	nf, err := os.Open(nets[0])
	if err != nil {
		t.Fatal(err)
	}
	defer nf.Close()
	if _, err := nettrace.ReadCSV(nf); err != nil {
		t.Fatalf("net trace unreadable: %v", err)
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-users", "x"}); err == nil {
		t.Fatal("bad flag should error")
	}
	// Out-of-range lengths and counts are refused before the output
	// directory is made: no panic, no empty files.
	for _, args := range [][]string{
		{"-seconds", "-1"},
		{"-seconds", "0"},
		{"-seconds", "0.001"},
		{"-seconds", "NaN"},
		{"-seconds", "+Inf"},
		{"-users", "-1"},
		{"-nettraces", "-2"},
	} {
		out := filepath.Join(t.TempDir(), "traces")
		if err := run(append([]string{"-out", out}, args...)); err == nil {
			t.Errorf("%v: no error", args)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%v: the output directory was made (stat: %v)", args, err)
		}
	}
}
