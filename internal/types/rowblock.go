package types

// RowBlock carves fixed-width rows out of flat []Datum allocations, so
// producing n rows of width w costs O(1) allocations instead of n. Rows
// handed out are full-capacity subslices of the backing array: they stay
// valid forever (callers may retain them), but appending to one would
// panic-free spill into a fresh array rather than a neighbouring row.
type RowBlock struct {
	backing []Datum
	width   int
	chunk   int // rows in the last backing allocation
}

// maxRefillRows is where refills stop doubling.
const maxRefillRows = 256

// NewRowBlock sizes a block for about n rows of the given width. More
// than n rows may be drawn; the block refills with fresh backing arrays
// as needed (earlier rows keep their storage). A producer that knows its
// output size passes it and never refills; one that does not (a join)
// starts small, and refills double up to maxRefillRows rows, so m rows
// cost O(log m + m/256) allocations and three rows do not pay for 256.
func NewRowBlock(n, width int) RowBlock {
	if n < 1 {
		n = 1
	}
	return RowBlock{backing: make([]Datum, n*width), width: width, chunk: n}
}

// Row hands out the next zeroed row from the block.
func (b *RowBlock) Row() Row {
	if len(b.backing) < b.width {
		if b.chunk < maxRefillRows {
			b.chunk = min(2*b.chunk, maxRefillRows)
		}
		b.backing = make([]Datum, b.chunk*b.width)
	}
	r := Row(b.backing[:b.width:b.width])
	b.backing = b.backing[b.width:]
	return r
}
