//go:build race

package streamrel

// Under the race detector sync.Pool drops a quarter of what is put in it, so
// the log's encode buffer is bought again now and then: TestArchiveCommitAllocs's
// byte bound holds only without it (make alloc-pins), as internal/wal's
// TestAppendAllocs's does, and so do TestReplicaArchiveApplyAllocs's bounds
// (they failed 8 of 30 runs under -race, never without).
func init() { racing = true }
