//go:build poison

package exec

// Built with -tags poison (make poison), every binary runs its joins in
// poison mode, which is how test suites outside this package — the root SQL
// suite, the equivalence suites — get the check this package's own tests
// switch on in TestMain.
func init() { poisonRecycled = true }
