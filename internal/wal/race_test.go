//go:build race

package wal

// Under the race detector sync.Pool drops a quarter of what is put in it, so
// the encode buffer is bought again now and then: TestAppendAllocs's byte
// bound holds only without it (make alloc-pins).
func init() { racing = true }
