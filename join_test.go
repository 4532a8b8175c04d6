package streamrel

import (
	"fmt"
	"slices"
	"testing"
)

// TestJoinsMatchNestedLoop: every SQL join type, on an equality (hashed) and
// on a non-equi condition (no keys: the nested loop), answers the rows of a
// brute-force nested loop over the same tables, as a multiset — a keyless
// FULL JOIN included. NULL keys join nothing.
func TestJoinsMatchNestedLoop(t *testing.T) {
	e := openMem(t)
	if err := e.ExecScript(`CREATE TABLE a (k bigint); CREATE TABLE b (k bigint);
		INSERT INTO a VALUES (1), (2), (2), (4), (NULL);
		INSERT INTO b VALUES (0), (2), (3), (3), (NULL)`); err != nil {
		t.Fatal(err)
	}
	as := []Value{Int(1), Int(2), Int(2), Int(4), Null}
	bs := []Value{Int(0), Int(2), Int(3), Int(3), Null}
	ons := map[string]func(l, r Value) bool{
		"a.k < b.k": func(l, r Value) bool { return !l.IsNull() && !r.IsNull() && l.Int() < r.Int() },
		"a.k = b.k": func(l, r Value) bool { return !l.IsNull() && !r.IsNull() && l.Int() == r.Int() },
	}
	for _, join := range []string{"JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL JOIN"} {
		for on, match := range ons {
			q := fmt.Sprintf(`SELECT a.k, b.k FROM a %s b ON %s`, join, on)
			var want []string
			met := make([]bool, len(bs))
			for _, l := range as {
				found := false
				for i, r := range bs {
					if match(l, r) {
						want = append(want, Row{l, r}.String())
						found, met[i] = true, true
					}
				}
				if !found && (join == "LEFT JOIN" || join == "FULL JOIN") {
					want = append(want, Row{l, Null}.String())
				}
			}
			for i, r := range bs {
				if !met[i] && (join == "RIGHT JOIN" || join == "FULL JOIN") {
					want = append(want, Row{Null, r}.String())
				}
			}
			got := rowStrings(mustQuery(t, e, q))
			slices.Sort(got)
			slices.Sort(want)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s:\n got %v\nwant %v", q, got, want)
			}
		}
	}
	if got := len(mustQuery(t, e, `SELECT a.k, b.k FROM a CROSS JOIN b`).Data); got != len(as)*len(bs) {
		t.Errorf("CROSS JOIN: %d rows, want %d", got, len(as)*len(bs))
	}
}
