package types

// RowBlock carves fixed-width rows out of flat []Datum allocations, so
// producing n rows of width w costs O(1) allocations instead of n. Rows
// handed out are full-capacity subslices of the backing array: they stay
// valid forever (callers may retain them) unless the producer calls Rewind,
// but appending to one would panic-free spill into a fresh array rather
// than a neighbouring row.
type RowBlock struct {
	array []Datum // the current backing array
	used  int     // datums of it handed out
	width int
	next  int // rows in the next backing allocation, at least
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
	if len(b.array)-b.used >= n*b.width {
		return
	}
	b.array, b.used = make([]Datum, max(n, b.next)*b.width), 0
	b.next = min(2*b.next, maxRefillRows)
}

// Row hands out the next row from the block, zeroed unless Rewind has made
// it a row drawn before.
func (b *RowBlock) Row() Row {
	b.Reserve(1)
	end := b.used + b.width
	r := Row(b.array[b.used:end:end])
	b.used = end
	return r
}

// Full reports whether the next Row would allocate a fresh array because
// the current one is used up. It is false for a block that has none yet.
func (b *RowBlock) Full() bool { return b.array != nil && len(b.array)-b.used < b.width }

// Rewind takes back the rows drawn from the current array — the caller
// vouches that nothing refers to them any more — so that the rows drawn
// next overwrite them, and returns their memory. A producer whose consumer
// keeps no row past a batch (an exec join under an aggregate) ends each
// batch where Full would turn true and rewinds before the next: it carves
// every batch from one array, whatever it produces in all.
func (b *RowBlock) Rewind() []Datum {
	taken := b.array[:b.used]
	b.used = 0
	return taken
}
