package server

import (
	"bytes"
	"math/rand"
	"testing"

	"streamrel/internal/types"
)

// ownershipStrings are the payloads the property draws from: empty, short,
// long, every escape the encoder writes, and invalid UTF-8 (which the wire
// replaces, as encoding/json does — so rows are compared with what the
// reference decodes, not with what was sent).
var ownershipStrings = []string{"", "", "a", "ok", "/index.html", "10.0.0.17", "tab\there \"q\" \\   é",
	"\xff\xfe bad \xc3", "<b>&amp;</b>", string(make([]byte, 300)), "\x00\x01\x1f"}

func ownershipBatch(r *rand.Rand) [][]WireValue {
	rows := make([][]WireValue, 1+r.Intn(12))
	for i := range rows {
		width := r.Intn(9)
		if r.Intn(40) == 0 {
			width = 30 + r.Intn(40)
		}
		rows[i] = make([]WireValue, width)
		for j := range rows[i] {
			switch r.Intn(8) {
			case 0, 1, 2:
				rows[i][j] = types.NewString(ownershipStrings[r.Intn(len(ownershipStrings))])
			case 3:
				rows[i][j] = types.Null
			case 4:
				rows[i][j] = types.NewInt(r.Int63() - 1<<62)
			case 5:
				rows[i][j] = types.NewFloat(r.NormFloat64())
			case 6:
				rows[i][j] = types.NewTimestampMicros(r.Int63n(1 << 50))
			default:
				rows[i][j] = types.NewBool(r.Intn(2) == 0)
			}
		}
	}
	return rows
}

// TestOwnershipJSON is the ownership rule over the wire codec: the rows of
// a request and of a batch frame — and a request's args, a batch of their
// own — equal what the reference decoder reads, survive the frame buffer
// being overwritten, and are carved as the rule says (types.CheckBatch).
// They are read the way a connection reads them, through one FrameReader and
// its one scratch.
func TestOwnershipJSON(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	var stream bytes.Buffer
	fr := NewFrameReader(&stream)
	var kept, wanted [][][]WireValue
	for batch := 0; batch < 2000; batch++ {
		sent := ownershipBatch(r)
		args := sent[r.Intn(len(sent))]
		if len(args) == 0 {
			args = nil // an empty list is not sent
		}
		var f frame = &Request{ID: 1, Op: "append", Stream: "events", Rows: sent, Args: args}
		if batch%2 == 1 {
			f = &Response{CQ: 7, Close: 60000000, Batch: true, Rows: sent}
		}
		buf, err := f.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(append(buf, '\n'))
		var got, want [][]WireValue
		var gotArgs []WireValue
		if batch%2 == 1 {
			var resp Response
			err = fr.Read(&resp)
			got = resp.Rows
		} else {
			var req Request
			err = fr.Read(&req)
			got, gotArgs = req.Rows, req.Args
		}
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		// The reference reads the same rows out of a copy of the frame.
		ref := decoder{buf: append([]byte(nil), buf...)}
		for {
			name, _, err := ref.field([]string{"rows", "args"})
			if err != nil {
				t.Fatal(err)
			}
			if name == "" {
				break
			}
			if name == "rows" {
				want, err = ref.parentReadRows()
			} else {
				var args []WireValue
				args, err = ref.parentReadRow()
				want = append(want, args)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range [][]types.Row{Rows(got), {gotArgs}} {
			if err := types.CheckBatch(b); err != nil {
				t.Fatalf("batch %d: %v", batch, err)
			}
		}
		if gotArgs != nil {
			got = append(got, gotArgs)
		}
		kept = append(kept, got)
		wanted = append(wanted, want)
	}
	// Every later frame has overwritten the reader's buffer and its scratch.
	for i := range kept {
		sameRows(t, kept[i], wanted[i])
	}
}

// TestDecodeDropsPlaceholders is the placeholder rule (proto.go) for the
// JSON decoder: a frame that fails after a VARCHAR value — cut short
// anywhere, or any byte of it replaced — leaves no row behind that holds the
// length-without-bytes types.RowStrings.Add returned, and whatever a frame
// that still decodes carries reads.
func TestDecodeDropsPlaceholders(t *testing.T) {
	frame := []byte(`{"id":1,"op":"append","stream":"s","rows":[[{"s":"first"},{"i":7},{"s":"second"}],[{"s":"third"},{"f":1.5}]],"args":[{"s":"arg"},{"ts":9}]}`)
	check := func(bad []byte) {
		t.Helper()
		// Decoded or refused, what the frame left behind must read.
		var req Request
		var resp Response
		_, _ = req.UnmarshalJSON(bad), resp.UnmarshalJSON(bad)
		for _, row := range append(append(req.Rows, req.Args), resp.Rows...) {
			_ = types.Row(row).String() // a placeholder panics here
		}
	}
	check(frame)
	for cut := range frame {
		check(frame[:cut])
	}
	for at := range frame {
		for _, b := range []byte{0, '"', '}', ']', 'x', '9'} {
			bad := append([]byte(nil), frame...)
			bad[at] = b
			check(bad)
		}
	}
}

// TestRowsViewAllocs: Rows and WireRows re-type a container they do not
// copy — no allocation either way, and a write through one name is seen
// through the other, which is why no caller may keep both.
func TestRowsViewAllocs(t *testing.T) {
	wire := ownershipBatch(rand.New(rand.NewSource(1)))
	var rows []types.Row
	var back [][]WireValue
	if n := testing.AllocsPerRun(100, func() { rows, back = Rows(wire), WireRows(rows) }); n != 0 {
		t.Errorf("Rows and WireRows allocate %.0f times, want 0", n)
	}
	if len(rows) != len(wire) || cap(rows) != cap(wire) || len(back) != len(wire) {
		t.Fatalf("%d wire rows viewed as %d rows (cap %d, was %d) and back as %d", len(wire), len(rows), cap(rows), cap(wire), len(back))
	}
	for i := range wire {
		if !rows[i].Equal(types.Row(wire[i])) {
			t.Fatalf("row %d: %v viewed as %v", i, wire[i], rows[i])
		}
	}
	rows[0] = types.Row{types.NewInt(42)}
	if len(wire[0]) != 1 || !wire[0][0].Equal(types.NewInt(42)) || len(WireRows(rows)[0]) != 1 {
		t.Errorf("a row set through the view is not seen in the wire rows: %v", wire[0])
	}
	if Rows(nil) != nil || WireRows(nil) != nil {
		t.Error("a nil container is not viewed as nil")
	}
}
