package sql

// MaxNesting is maxNesting, for the fuzz target in package sql_test (it
// imports sqlgen, which imports this package).
const MaxNesting = maxNesting
