//go:build race

package server

// The race detector drops sync.Pool items at random, so TestDeadAppendAllocs's
// count holds only without it (make alloc-pins).
func init() { racing = true }
