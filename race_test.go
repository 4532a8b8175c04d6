//go:build race

package streamrel

// Under the race detector sync.Pool drops a quarter of what is put in it, so
// the log's encode buffer is bought again now and then: TestArchiveCommitAllocs's
// byte bound holds only without it (make alloc-pins), as internal/wal's
// TestAppendAllocs's does.
func init() { racing = true }
