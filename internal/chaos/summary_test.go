package chaos

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// declaredFaultKinds reads the FaultKind constants out of profile.go, so the
// table below cannot fall behind the parser: a kind added there without a
// row here (and a line in Summary) fails the test.
func declaredFaultKinds(t *testing.T) []FaultKind {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "profile.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []FaultKind
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		if id, ok := spec.Type.(*ast.Ident); !ok || id.Name != "FaultKind" {
			return true
		}
		for _, v := range spec.Values {
			lit, ok := v.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Fatalf("FaultKind constant %v is not a string literal", spec.Names)
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			kinds = append(kinds, FaultKind(s))
		}
		return true
	})
	if len(kinds) < 14 {
		t.Fatalf("found only %d FaultKind constants in profile.go: %v", len(kinds), kinds)
	}
	return kinds
}

// TestSummaryNamesEveryKindsParameters walks every fault kind the parser
// accepts: a fault of the kind with distinctive parameter values must
// validate, and its summary line must print each parameter the kind reads.
func TestSummaryNamesEveryKindsParameters(t *testing.T) {
	rows := map[FaultKind]struct {
		fault Fault
		want  []string
	}{
		FaultBurstLoss: {Fault{PGoodBad: 0.11, PBadGood: 0.22, PGood: 0.03, PBad: 0.94},
			[]string{"p_gb 0.11", "p_bg 0.22", "p_good 0.03", "p_bad 0.94"}},
		FaultLoss:           {Fault{P: 0.07}, []string{"p 0.07"}},
		FaultReorder:        {Fault{P: 0.17}, []string{"p 0.17"}},
		FaultDuplicate:      {Fault{P: 0.27}, []string{"p 0.27"}},
		FaultCorrupt:        {Fault{P: 0.37}, []string{"p 0.37"}},
		FaultBandwidth:      {Fault{Factor: 0.35}, []string{"factor 0.35"}},
		FaultBlackout:       {Fault{Sessions: []uint32{3, 9}}, []string{"sessions [3 9]"}},
		FaultStall:          {Fault{DelayMs: 12.5}, []string{"delay 12.5 ms"}},
		FaultSlowACK:        {Fault{DelayMs: 7.5}, []string{"delay 7.5 ms"}},
		FaultShardKill:      {Fault{Shard: 5}, []string{"shard 5", "open-ended"}},
		FaultShardDrain:     {Fault{Shard: 6, DurationSlots: 40}, []string{"shard 6", "40 slots"}},
		FaultShardDegrade:   {Fault{Shard: 7, Factor: 0.45, DurationSlots: 30}, []string{"shard 7", "factor 0.45", "30 slots"}},
		FaultCoordKill:      {Fault{Replica: 2}, []string{"replica 2", "open-ended"}},
		FaultCoordPartition: {Fault{Replica: 4, DurationSlots: 60}, []string{"replica 4", "60 slots"}},
	}
	kinds := declaredFaultKinds(t)
	if len(kinds) != len(rows) {
		t.Errorf("profile.go declares %d fault kinds, the table has %d rows", len(kinds), len(rows))
	}
	for _, kind := range kinds {
		row, ok := rows[kind]
		if !ok {
			t.Errorf("fault kind %q has no row here — give it one, and a line in Summary", kind)
			continue
		}
		f := row.fault
		f.Kind, f.StartSlot = kind, 123
		wire, err := json.Marshal(Profile{Name: "one-" + string(kind), Seed: 5, Faults: []Fault{f}})
		if err != nil {
			t.Fatal(err)
		}
		p, err := parseProfile(wire)
		if err != nil {
			t.Errorf("%s: the parser rejects the table's fault: %v", kind, err)
			continue
		}
		text := p.Summary()
		for _, want := range append(row.want, string(kind), "start slot 123", `"one-`+string(kind)+`"`, "seed 5", "1 fault(s)", "profile OK") {
			if !strings.Contains(text, want) {
				t.Errorf("%s: summary lacks %q:\n%s", kind, want, text)
			}
		}
	}
}
