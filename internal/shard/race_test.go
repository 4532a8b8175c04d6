//go:build race

package shard

// Under the race detector an append's allocation count picks up the
// detector's own: TestRouterAppendAllocs's bounds hold only without it (make
// alloc-pins).
func init() { racing = true }
