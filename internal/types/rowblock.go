package types

// RowBlock carves fixed-width rows out of flat []Datum allocations, so
// producing n rows of width w costs O(1) allocations instead of n. Rows
// handed out are full-capacity subslices of the backing array: they stay
// valid forever (callers may retain them), but appending to one would
// panic-free spill into a fresh array rather than a neighbouring row.
type RowBlock struct {
	backing []Datum
	width   int
	next    int // rows in the next backing allocation, at least
}

// maxRefillRows is where refills stop doubling.
const maxRefillRows = 256

// NewRowBlock sizes a block for about n rows of the given width; nothing
// is allocated until the first row is drawn. More than n rows may be
// drawn; the block refills with fresh backing arrays as needed (earlier
// rows keep their storage). A producer that knows its output size passes
// it and never refills; one that does not (a join) starts small, and
// refills double up to maxRefillRows rows, so m rows cost O(log m + m/256)
// allocations and three rows do not pay for 256.
func NewRowBlock(n, width int) RowBlock {
	return RowBlock{width: width, next: max(n, 1)}
}

// Reserve makes the next n rows come out of one backing array: a producer
// that learns its output a chunk at a time (exec.Project) pays one
// allocation per chunk when chunks are large and the doubling refill when
// they are single rows.
func (b *RowBlock) Reserve(n int) {
	if len(b.backing) >= n*b.width {
		return
	}
	b.backing = make([]Datum, max(n, b.next)*b.width)
	b.next = min(2*b.next, maxRefillRows)
}

// Row hands out the next zeroed row from the block.
func (b *RowBlock) Row() Row {
	b.Reserve(1)
	r := Row(b.backing[:b.width:b.width])
	b.backing = b.backing[b.width:]
	return r
}
