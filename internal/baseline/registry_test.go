package baseline

import (
	"reflect"
	"strings"
	"testing"
)

// TestRegistryConstructsEveryName builds every registered allocator twice:
// each has a report name, and an allocator that carries state (a pointer to
// a non-empty struct) is a fresh instance per call — the one-per-goroutine
// contract every call site of the solver-backed allocator depends on.
func TestRegistryConstructsEveryName(t *testing.T) {
	names := AllocatorNames()
	if len(names) == 0 {
		t.Fatal("empty registry")
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Errorf("name %q registered twice", name)
		}
		seen[name] = true
		mk, err := Constructor(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a, b := mk(), mk()
		if a.Name() == "" {
			t.Errorf("%s: empty Name()", name)
		}
		v := reflect.ValueOf(a)
		if v.Kind() == reflect.Pointer && v.Elem().Type().Size() > 0 && a == b {
			t.Errorf("%s: two constructor calls returned the same instance", name)
		}
	}
}

// TestRegistryUnknownNameListsValid: the error for an unregistered name
// carries the table's names, so no CLI maintains its own list.
func TestRegistryUnknownNameListsValid(t *testing.T) {
	_, err := Constructor("nope")
	if err == nil {
		t.Fatal("unknown allocator accepted")
	}
	for _, name := range AllocatorNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}
