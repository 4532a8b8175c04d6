//go:build race

package client

// The race detector drops sync.Pool items at random, so TestRoundTripAllocs's
// pooled timer holds only without it (make alloc-pins).
func init() { racing = true }
