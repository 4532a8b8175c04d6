package experiments

import "testing"

// TestAllExperimentsSmall runs the full suite at a tiny scale: every
// Index entry is complete and unique, and every experiment must execute
// end to end, produce a well-formed table under its own ID, and pass its
// internal correctness cross-checks (e.g. E1/E6 verify batch and
// continuous reports are identical).
func TestAllExperimentsSmall(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Index {
		if e.ID == "" || e.What == "" || e.Run == nil {
			t.Fatalf("incomplete Index entry: %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
	tables, err := All(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(Index) {
		t.Fatalf("All ran %d experiments, Index lists %d", len(tables), len(Index))
	}
	for i, tab := range tables {
		if tab.ID != Index[i].ID {
			t.Fatalf("Index entry %s produced table %q", Index[i].ID, tab.ID)
		}
		if tab.Title == "" || len(tab.Header) == 0 || len(tab.Rows) == 0 {
			t.Fatalf("malformed table: %+v", tab)
		}
		if tab.String() == "" {
			t.Fatal("empty rendering")
		}
	}
}

func TestScale(t *testing.T) {
	if Scale(0.001).n(100) != 1 {
		t.Fatal("scale floor")
	}
	if Scale(2).n(100) != 200 {
		t.Fatal("scale up")
	}
}
