//go:build race

package sql

// Under the race detector ReadMemStats counts the detector's allocations
// too: TestParserPullsTokens's byte bound holds only without it, as
// `go test ./internal/sql` runs it.
func init() { racing = true }
