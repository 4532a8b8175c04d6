package main

import (
	"strings"
	"testing"

	"streamrel/internal/experiments"
)

// TestSelectIDs: -only takes ids in any case with spaces, nothing means
// everything, and an id the Index does not list is an error that lists the
// Index instead of a silent run of nothing.
func TestSelectIDs(t *testing.T) {
	if want, err := selectIDs(""); err != nil || len(want) != 0 {
		t.Fatalf(`selectIDs("") = %v, %v`, want, err)
	}
	want, err := selectIDs("e3, F1")
	if err != nil || len(want) != 2 || !want["E3"] || !want["F1"] {
		t.Fatalf(`selectIDs("e3, F1") = %v, %v`, want, err)
	}
	_, err = selectIDs("E3,E99")
	if err == nil {
		t.Fatal("an unknown id was accepted")
	}
	for _, e := range experiments.Index {
		if !strings.Contains(err.Error(), e.ID) {
			t.Errorf("error %q does not list %s", err, e.ID)
		}
	}
	if !strings.Contains(err.Error(), `"E99"`) {
		t.Errorf("error %q does not name the unknown id", err)
	}
}
