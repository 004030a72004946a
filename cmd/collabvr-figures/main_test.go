package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestFig1aAnd1b(t *testing.T) {
	if err := run([]string{"-fig", "1a"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-fig", "1b"}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownFigIsNoop(t *testing.T) {
	if err := run([]string{"-fig", "99"}); err != nil {
		t.Fatal(err)
	}
}

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-seed", "x"}); err == nil {
		t.Fatal("bad flag should error")
	}
}

func TestSpansMode(t *testing.T) {
	out := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := run([]string{"-spans", "-span-out", out}); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(out)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Fatal("span JSONL is empty")
	}
}
