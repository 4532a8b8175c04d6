//go:build go1.24

package ivm

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"
	"weak"

	"streamrel/internal/types"
)

// TestStoreKeysPinNoBatch: a decoded row's strings are its whole batch's one
// string, so a group whose key row kept the strings of the row that created it
// would keep the batch reachable for as long as the group lives. A group's key
// row points into the group's own key string instead, and Insert keeps no row:
// once the batch is dropped, neither its values nor its strings are reachable.
func TestStoreKeysPinNoBatch(t *testing.T) {
	s := newStore(t, `SELECT url, count(*), sum(v) FROM s <VISIBLE '30 seconds' ADVANCE '10 seconds'> GROUP BY url`)
	v := s.Attach(30 * second)
	var buf []byte
	for i := 0; i < 64; i++ {
		buf = types.EncodeRow(buf, hit(fmt.Sprintf("/page/%d", i%8), int64(i)*second/8, int64(i)))
	}
	var strs types.RowStrings
	strs.Reset()
	for rest := buf; len(rest) > 0; {
		var err error
		if rest, err = strs.Decode(rest); err != nil {
			t.Fatal(err)
		}
	}
	rows := strs.Rows()
	values, bytes := weak.Make(&rows[0][0]), weak.Make(unsafe.StringData(rows[0][0].Str()))
	for _, r := range rows {
		insert(t, s, r)
	}
	rows = nil
	runtime.GC()
	runtime.GC()
	if values.Value() != nil || bytes.Value() != nil {
		t.Fatalf("the store keeps the decoded batch reachable: values %v, strings %v", values.Value() != nil, bytes.Value() != nil)
	}
	var want strings.Builder
	for g := 0; g < 8; g++ {
		fmt.Fprintf(&want, "/page/%d|8|%d;", g, 8*g+224)
	}
	if got, _ := fire(t, v, 10*second); got != want.String() {
		t.Fatalf("fire = %s, want %s", got, want.String())
	}
}
