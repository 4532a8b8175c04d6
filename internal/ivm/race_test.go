//go:build race

package ivm

// Under the race detector a close's allocation count picks up the
// detector's own: TestPairedFireAllocs's bound holds only without it (make
// alloc-pins), as the root package's byte and flatness bounds do.
func init() { racing = true }
