package expr

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"streamrel/internal/types"
)

// aggregate names recognized by the planner.
var aggregateNames = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
	"stddev": true, "variance": true, "first": true, "last": true,
}

// IsAggregate reports whether name is an aggregate function.
func IsAggregate(name string) bool { return aggregateNames[strings.ToLower(name)] }

// AggSpec describes one aggregate call extracted from a query.
type AggSpec struct {
	Name     string  // lower-cased aggregate name
	Arg      *Scalar // nil for count(*)
	Star     bool
	Distinct bool
}

// ResultType returns the aggregate's static output type.
func (s AggSpec) ResultType() types.Type {
	switch s.Name {
	case "count":
		return types.TypeInt
	case "avg", "stddev", "variance":
		return types.TypeFloat
	case "sum", "min", "max", "first", "last":
		if s.Arg != nil {
			return s.Arg.Type
		}
		return types.TypeUnknown
	}
	return types.TypeUnknown
}

// Acc is an aggregate accumulator. Accumulators are mergeable: Merge
// combines another accumulator of the same spec into this one. That
// property is what lets window slices be aggregated once and combined per
// window (shared slice aggregation, paper refs [4],[12]).
type Acc interface {
	// Add folds one input value in. For count(*) the value is ignored.
	Add(v types.Datum) error
	// Merge combines a partial accumulator produced by the same spec.
	Merge(other Acc) error
	// Result returns the aggregate value for everything added so far.
	Result() types.Datum
}

// Retractable is an accumulator whose Merge has an exact inverse: Sub
// removes a partial previously merged (or the values previously added) and
// leaves the state those never having arrived would have left. count, sum
// and avg are; min/max/first/last keep no history to fall back on, and
// DISTINCT would need per-value counts.
type Retractable interface {
	Acc
	Sub(other Acc) error
}

// NewAcc returns a fresh accumulator for the spec, allocated on its own.
func NewAcc(spec AggSpec) (Acc, error) {
	var one AccSlab
	return one.New(spec)
}

// AccSlab hands out accumulators carved from typed chunks — one allocation
// per Chunk accumulators of a kind instead of one apiece — for a caller
// that makes them by the thousand and lets go of them together: the state
// of a Slab's groups, a Column's accumulators. An accumulator keeps its
// chunk alive, so a slab's memory goes when every accumulator it handed out
// has; the zero value allocates one at a time.
type AccSlab struct {
	// Chunk is how many accumulators of a kind the next refill makes.
	Chunk int

	counts     []countAcc
	stars      []countStarAcc
	bigints    []sumLane[bigintWord]
	doubles    []sumLane[doubleWord]
	intervals  []sumLane[intervalWord]
	avgs       []avgAcc
	minmaxes   []minmaxAcc
	moments    []momentsAcc
	firstLasts []firstLastAcc
}

// carve hands out the next element of a typed chunk, refilling it first if
// it has run out.
func carve[T any](chunk *[]T, n int) *T {
	if len(*chunk) == 0 {
		*chunk = make([]T, max(n, 1))
	}
	a := &(*chunk)[0]
	*chunk = (*chunk)[1:]
	return a
}

// New returns a fresh accumulator for the spec.
func (s *AccSlab) New(spec AggSpec) (Acc, error) {
	var inner Acc
	switch spec.Name {
	case "count":
		if spec.Star {
			inner = carve(&s.stars, s.Chunk)
		} else {
			inner = carve(&s.counts, s.Chunk)
		}
	case "sum":
		var err error
		if inner, err = s.sum(spec.Arg); err != nil {
			return nil, err
		}
	case "avg":
		inner = carve(&s.avgs, s.Chunk)
	case "min", "max":
		a := carve(&s.minmaxes, s.Chunk)
		a.want = 1
		if spec.Name == "min" {
			a.want = -1
		}
		inner = a
	case "stddev", "variance":
		a := carve(&s.moments, s.Chunk)
		a.stddev = spec.Name == "stddev"
		inner = a
	case "first", "last":
		a := carve(&s.firstLasts, s.Chunk)
		a.first = spec.Name == "first"
		inner = a
	default:
		return nil, fmt.Errorf("expr: unknown aggregate %q", spec.Name)
	}
	if spec.Distinct {
		if spec.Star {
			return nil, fmt.Errorf("expr: %s(DISTINCT *) is not valid", spec.Name)
		}
		return &distinctAcc{seen: make(map[string]types.Datum), inner: inner}, nil
	}
	return inner, nil
}

// sum carves a sum's accumulator: the lane of its argument's type, which
// Scalar.Type promises every value has. NULL's and an unknown type's (whose
// values are never read) are BIGINT's: a lane refuses a value of another
// type, never sums it wrong.
func (s *AccSlab) sum(arg *Scalar) (Acc, error) {
	typ := types.TypeUnknown
	if arg != nil {
		typ = arg.Type
	}
	switch typ {
	case types.TypeInt, types.TypeNull, types.TypeUnknown:
		return carve(&s.bigints, s.Chunk), nil
	case types.TypeFloat:
		return carve(&s.doubles, s.Chunk), nil
	case types.TypeInterval:
		return carve(&s.intervals, s.Chunk), nil
	}
	return nil, fmt.Errorf("expr: sum over %s", typ)
}

// Reset returns an accumulator AccSlab.New made to the state New gave it: the
// spec's flags kept, every value it held let go, so it pins no input batch.
func Reset(a Acc) {
	switch a := a.(type) {
	case *countAcc:
		a.n = 0
	case *countStarAcc:
		a.n = 0
	case lane:
		a.reset()
	case *avgAcc:
		*a = avgAcc{}
	case *minmaxAcc:
		*a = minmaxAcc{want: a.want}
	case *momentsAcc:
		*a = momentsAcc{stddev: a.stddev}
	case *firstLastAcc:
		*a = firstLastAcc{first: a.first}
	case *distinctAcc:
		clear(a.seen)
		Reset(a.inner)
	}
}

// Sentinel is what recycled state holds until it is reused, where
// types.Poison asks for it: a reader that kept the state reads garbage, not a
// quiet zero.
var Sentinel = types.NewInt(-1 << 50)

// Column is one aggregate's state for many groups, element i a group's: the
// window-state store's (internal/ivm) partials of a slice, by their position
// in it, and a view's window layer, by group id. COUNT, SUM, AVG and
// stddev/variance keep their accumulators' values in one array of words that
// holds no pointer, which the collector does not trace, each element only the
// words its type needs (DESIGN §11 "Allocation"); MIN/MAX, first/last and
// DISTINCT keep an Acc each.
type Column interface {
	// Acc returns element i as an accumulator, valid until the next Resize.
	Acc(i int) Acc
	// Result returns element i's aggregate value.
	Result(i int) types.Datum
	// Resize makes the column n elements long. The elements it adds are
	// fresh. The ones it cuts let go of every value they held and, under
	// types.Poison, hold Sentinel; their memory stays for the next growth.
	Resize(n int)
	// Reset makes element i fresh; poison then folds Sentinel in.
	Reset(i int, poison bool)
	// Clip moves the column to an array of its length.
	Clip()
}

// NewColumn returns an empty column for the spec.
func NewColumn(spec AggSpec) (Column, error) {
	a, err := NewAcc(spec)
	if w, ok := a.(word); ok {
		return w.column(), nil
	}
	return &accs{spec: spec}, err
}

// Grow returns s at length n, moved, when n exceeds its capacity, to an array
// as append grows one but not rounded up to a size class: a column of n
// elements never holds more than 2n. Elements past len(s) keep what they held.
func Grow[T any](s []T, n int) []T {
	if c := cap(s); n > c {
		if c < 256 {
			c *= 2
		} else {
			c += (c + 768) / 4
		}
		s = append(make([]T, 0, max(n, c)), s...)
	}
	return s[:n]
}

// accOf is an accumulator type whose values a words column holds.
type accOf[T any] interface {
	*T
	Acc
}

// word is an accumulator whose values a words column holds.
type word interface{ column() Column }

// words is a column of accumulator values: fresh is what NewAcc made, poison
// that with a sentinel of the column's type folded in.
type words[T any, P accOf[T]] struct {
	fresh, poison T
	v             []T
}

func wordsOf[T any, P accOf[T]](a P, sentinel types.Datum) Column {
	c := &words[T, P]{fresh: *a, poison: *a}
	_ = P(&c.poison).Add(sentinel)
	return c
}

func (c *words[T, P]) Acc(i int) Acc { return P(&c.v[i]) }

func (c *words[T, P]) Result(i int) types.Datum { return P(&c.v[i]).Result() }

func (c *words[T, P]) Reset(i int, poison bool) {
	if c.v[i] = c.fresh; poison {
		c.v[i] = c.poison
	}
}

func (c *words[T, P]) Resize(n int) {
	for i := n; i < len(c.v) && types.Poison; i++ {
		c.Reset(i, true)
	}
	old := len(c.v)
	c.v = Grow(c.v, n)
	for i := old; i < n; i++ {
		c.v[i] = c.fresh
	}
}

func (c *words[T, P]) Clip() { c.v = append([]T(nil), c.v...) }

// accs is a column of accumulators carved from its own slab. The ones it cuts
// stay in its array, reset, for its next growth.
type accs struct {
	spec AggSpec
	pool AccSlab
	v    []Acc
}

func (c *accs) Acc(i int) Acc { return c.v[i] }

func (c *accs) Result(i int) types.Datum { return c.v[i].Result() }

func (c *accs) Reset(i int, poison bool) {
	if Reset(c.v[i]); poison {
		_ = c.v[i].Add(Sentinel)
	}
}

func (c *accs) Resize(n int) {
	for i := n; i < len(c.v); i++ {
		c.Reset(i, types.Poison)
	}
	old := len(c.v)
	if c.v = Grow(c.v, n); n > old {
		c.pool.Chunk = cap(c.v) - old
	}
	for i := old; i < n; i++ {
		if c.v[i] == nil {
			c.v[i], _ = c.pool.New(c.spec) // NewColumn checked the spec
		} else {
			Reset(c.v[i])
		}
	}
}

func (c *accs) Clip() { c.v = append([]Acc(nil), c.v...) }

// maxChunk bounds a slab chunk (types.RowBlock's bound); minRefill is the
// least a slab allocates once its guess has run out.
const (
	maxChunk  = 256
	minRefill = 4
)

// Slab carves the state of one of exec.HashAgg's groups — a T, its []Acc and
// the accumulators themselves — out of chunks of groups: the first as large
// as the slab was sized for, and when that guess misses, a quarter of what
// the slab holds so far — a table one group larger than the guess allocates
// for a quarter more groups, not (as a refill that doubled did) for three
// times as many — until it holds maxChunk, the size of every chunk from
// there on. Nothing is handed out twice: the chunks are
// garbage once everything carved from them is.
type Slab[T any] struct {
	n      int // groups in the next chunk
	carved int // groups in the chunks so far
	objs   []T
	accs   []Acc
	pool   AccSlab
}

// NewSlab returns a slab whose first chunk fits n groups: the size of the
// slice or window before is the best guess at the next one.
func NewSlab[T any](n int) Slab[T] { return Slab[T]{n: min(max(n, 1), maxChunk)} }

// Next hands out the state of one more group.
func (b *Slab[T]) Next(aggs []AggSpec) (*T, []Acc, error) {
	if len(b.objs) == 0 {
		b.objs = make([]T, b.n)
		b.accs = make([]Acc, b.n*len(aggs))
		b.pool.Chunk = b.n
		b.carved += b.n
		b.n = maxChunk
		if b.carved < maxChunk {
			b.n = max(b.carved/4, minRefill)
		}
	}
	o := &b.objs[0]
	b.objs = b.objs[1:]
	accs := b.accs[:len(aggs):len(aggs)]
	b.accs = b.accs[len(aggs):]
	for i, spec := range aggs {
		var err error
		if accs[i], err = b.pool.New(spec); err != nil {
			return nil, nil, err
		}
	}
	return o, accs, nil
}

// KeyChunk carves the key strings of groups — exec.HashAgg's map keys, the
// window-state store's (internal/ivm) — out of chunks of bytes it writes once:
// a key it hands out keeps its chunk reachable and stays valid for as long as
// it lives. A key that does not fit starts a fresh chunk, for hint keys of its
// length, at least 16 and at most 256; the keys carved before keep the old one.
type KeyChunk struct{ b strings.Builder }

// Carve copies key into the chunk and returns the copy.
func (k *KeyChunk) Carve(key []byte, hint int) string {
	if k.b.Cap()-k.b.Len() < len(key) {
		k.Reset(len(key) * min(max(hint, 16), 256))
	}
	at := k.b.Len()
	k.b.Write(key)
	return k.b.String()[at:]
}

// Reset starts a fresh chunk of n bytes.
func (k *KeyChunk) Reset(n int) { k.b.Reset(); k.b.Grow(n) }

// Recycler keeps the objects its owner lets go of for the owner's next ones,
// by one rule, whatever the object: the window-state store's slices and
// groups, a view's rows (internal/ivm), exec.HashAgg's kept groups.
//
// An object put at a boundary is kept until the next: Boundary drops what an
// earlier boundary kept and nothing took since. Where objects are carved
// from memory they share — a slab's chunk, a row block — which stays whole
// while one of them lives, dropping one frees nothing, so the owner counts
// what it carves (Made) and its objects are kept until, at a boundary where
// that count is more than twice the objects it uses, every kept object goes
// and the owner carves afresh: it never holds more than two packed copies of
// what it uses, plus one boundary's release.
//
// Put resets an object; under types.Poison it also leaves a sentinel in it,
// which Take resets away, so a reader that kept a recycled object reads
// garbage, not a quiet zero.
type Recycler[E any] struct {
	reset func(e E, poison bool)
	free  []E
	kept  int // free[:kept] were kept at the last boundary
	made  int // objects carved since the owner last carved afresh
}

// NewRecycler returns a recycler whose objects reset empties, and poisons
// when asked to, with room to keep n of them before Put allocates.
func NewRecycler[E any](reset func(e E, poison bool), n int) Recycler[E] {
	return Recycler[E]{reset: reset, free: make([]E, 0, n)}
}

// Put keeps e, reset, for a later Take. Every counted object can come back,
// so a Put that finds the room used up makes room for all of them at once.
func (r *Recycler[E]) Put(e E) {
	r.reset(e, types.Poison)
	if len(r.free) == cap(r.free) && r.made > len(r.free) {
		r.free = slices.Grow(r.free, r.made-len(r.free))
	}
	r.free = append(r.free, e)
}

// Take hands back the object put last, or the zero E when none is kept.
func (r *Recycler[E]) Take() (e E) {
	n := len(r.free) - 1
	if n < 0 {
		return e
	}
	e = r.free[n]
	clear(r.free[n:])
	r.free, r.kept = r.free[:n], min(r.kept, n)
	if types.Poison {
		r.reset(e, false)
	}
	return e
}

// Made counts n objects carved from shared memory.
func (r *Recycler[E]) Made(n int) { r.made += n }

// Len returns how many objects are kept.
func (r *Recycler[E]) Len() int { return len(r.free) }

// Boundary is called once a boundary's objects are put, with the objects
// the owner uses. It drops everything when more than twice live were carved
// — then it reports that the owner must carve afresh, and counts from zero
// again — and otherwise, if nothing was carved, what the last boundary kept
// and nothing took.
func (r *Recycler[E]) Boundary(live int) (fresh bool) {
	n := len(r.free)
	if fresh = r.made > 2*live; fresh {
		r.made, n = 0, 0
	} else if r.made == 0 {
		n = copy(r.free, r.free[r.kept:])
	}
	clear(r.free[n:])
	r.free, r.kept = r.free[:n], n
	return fresh
}

// countAcc implements count(x), the non-NULL values; countStarAcc count(*),
// every row. Which one is the type's, not a flag, so an element is one word.
type (
	countAcc     struct{ n int64 }
	countStarAcc struct{ countAcc }
)

func (a *countAcc) Add(v types.Datum) error {
	if !v.IsNull() {
		a.n++
	}
	return nil
}

func (a *countStarAcc) Add(types.Datum) error {
	a.n++
	return nil
}

func (a *countAcc) Merge(other Acc) error {
	o, ok := other.(interface{ counted() int64 })
	if !ok {
		return mergeTypeErr(a, other)
	}
	a.n += o.counted()
	return nil
}

func (a *countAcc) Sub(other Acc) error {
	o, ok := other.(interface{ counted() int64 })
	if !ok {
		return mergeTypeErr(a, other)
	}
	a.n -= o.counted()
	return nil
}

func (a *countAcc) counted() int64 { return a.n }

func (a *countAcc) Result() types.Datum { return types.NewInt(a.n) }

func (a *countAcc) column() Column     { return wordsOf(a, Sentinel) }
func (a *countStarAcc) column() Column { return wordsOf(a, Sentinel) }

// sumLane implements sum over an argument of one type: the non-NULL values it
// holds and their sum in the type's own word. Its result is NULL once no
// non-NULL value is left; a value of another type is an error, never a sum.
type sumLane[W laneWord[W]] struct {
	n int64
	s W
}

// laneWord is a typed sum's value word, named by its SQL type.
type laneWord[W any] interface {
	~int64 | ~float64
	sqlType() types.Type
	of(v types.Datum) W
	datum() types.Datum
}

type (
	bigintWord   int64
	doubleWord   float64
	intervalWord int64
)

func (bigintWord) sqlType() types.Type             { return types.TypeInt }
func (bigintWord) of(v types.Datum) bigintWord     { return bigintWord(v.Int()) }
func (w bigintWord) datum() types.Datum            { return types.NewInt(int64(w)) }
func (doubleWord) sqlType() types.Type             { return types.TypeFloat }
func (doubleWord) of(v types.Datum) doubleWord     { return doubleWord(v.Float()) }
func (w doubleWord) datum() types.Datum            { return types.NewFloat(float64(w)) }
func (intervalWord) sqlType() types.Type           { return types.TypeInterval }
func (intervalWord) of(v types.Datum) intervalWord { return intervalWord(v.IntervalMicros()) }
func (w intervalWord) datum() types.Datum          { return types.NewIntervalMicros(int64(w)) }

// lane is every sumLane, for Reset.
type lane interface{ reset() }

func (a *sumLane[W]) Add(v types.Datum) error {
	if v.IsNull() {
		return nil
	}
	if t := a.s.sqlType(); v.Type() != t {
		return fmt.Errorf("expr: sum over a %s argument met %s %v", t, v.Type(), v)
	}
	a.n++
	a.s += a.s.of(v)
	return nil
}

func (a *sumLane[W]) Merge(other Acc) error {
	o, ok := other.(*sumLane[W])
	if !ok {
		return mergeTypeErr(a, other)
	}
	a.n += o.n
	a.s += o.s
	return nil
}

func (a *sumLane[W]) Sub(other Acc) error {
	o, ok := other.(*sumLane[W])
	if !ok {
		return mergeTypeErr(a, other)
	}
	a.n -= o.n
	a.s -= o.s
	return nil
}

func (a *sumLane[W]) Result() types.Datum {
	if a.n == 0 {
		return types.Null
	}
	return a.s.datum()
}

func (a *sumLane[W]) reset() { *a = sumLane[W]{} }

func (a *sumLane[W]) column() Column { return wordsOf(a, W(Sentinel.Int()).datum()) }

// avgAcc implements avg as (sum, count).
type avgAcc struct {
	n int64
	f float64
}

func (a *avgAcc) Add(v types.Datum) error {
	if v.IsNull() {
		return nil
	}
	if !v.Type().Numeric() {
		return fmt.Errorf("expr: avg over %s", v.Type())
	}
	a.n++
	a.f += v.Float()
	return nil
}

func (a *avgAcc) Merge(other Acc) error {
	o, ok := other.(*avgAcc)
	if !ok {
		return mergeTypeErr(a, other)
	}
	a.n += o.n
	a.f += o.f
	return nil
}

func (a *avgAcc) Sub(other Acc) error {
	o, ok := other.(*avgAcc)
	if !ok {
		return mergeTypeErr(a, other)
	}
	a.n -= o.n
	a.f -= o.f
	return nil
}

func (a *avgAcc) Result() types.Datum {
	if a.n == 0 {
		return types.Null
	}
	return types.NewFloat(a.f / float64(a.n))
}

func (a *avgAcc) column() Column { return wordsOf(a, Sentinel) }

// minmaxAcc implements min (want=-1) and max (want=+1).
type minmaxAcc struct {
	want int
	seen bool
	best types.Datum
}

func (a *minmaxAcc) Add(v types.Datum) error {
	if v.IsNull() {
		return nil
	}
	if !a.seen {
		a.best, a.seen = v, true
		return nil
	}
	if !types.Comparable(v.Type(), a.best.Type()) {
		return fmt.Errorf("expr: min/max over mixed types %s and %s", v.Type(), a.best.Type())
	}
	if c := types.Compare(v, a.best); (a.want < 0 && c < 0) || (a.want > 0 && c > 0) {
		a.best = v
	}
	return nil
}

func (a *minmaxAcc) Merge(other Acc) error {
	o, ok := other.(*minmaxAcc)
	if !ok {
		return mergeTypeErr(a, other)
	}
	if o.seen {
		return a.Add(o.best)
	}
	return nil
}

func (a *minmaxAcc) Result() types.Datum {
	if !a.seen {
		return types.Null
	}
	return a.best
}

// momentsAcc implements sample variance and stddev via (n, Σx, Σx²),
// which merges exactly.
type momentsAcc struct {
	stddev bool
	n      int64
	sum    float64
	sumsq  float64
}

func (a *momentsAcc) Add(v types.Datum) error {
	if v.IsNull() {
		return nil
	}
	if !v.Type().Numeric() {
		return fmt.Errorf("expr: stddev/variance over %s", v.Type())
	}
	x := v.Float()
	a.n++
	a.sum += x
	a.sumsq += x * x
	return nil
}

func (a *momentsAcc) Merge(other Acc) error {
	o, ok := other.(*momentsAcc)
	if !ok {
		return mergeTypeErr(a, other)
	}
	a.n += o.n
	a.sum += o.sum
	a.sumsq += o.sumsq
	return nil
}

func (a *momentsAcc) Result() types.Datum {
	if a.n < 2 {
		return types.Null
	}
	n := float64(a.n)
	variance := (a.sumsq - a.sum*a.sum/n) / (n - 1)
	if variance < 0 {
		variance = 0 // floating point noise
	}
	if a.stddev {
		return types.NewFloat(math.Sqrt(variance))
	}
	return types.NewFloat(variance)
}

func (a *momentsAcc) column() Column { return wordsOf(a, Sentinel) }

// firstLastAcc keeps the first or last non-NULL value in arrival order.
// Merge assumes "other" accumulated later input, which holds for slice
// merging (slices merge in time order).
type firstLastAcc struct {
	first bool
	seen  bool
	val   types.Datum
}

func (a *firstLastAcc) Add(v types.Datum) error {
	if v.IsNull() {
		return nil
	}
	if a.first && a.seen {
		return nil
	}
	a.val, a.seen = v, true
	return nil
}

func (a *firstLastAcc) Merge(other Acc) error {
	o, ok := other.(*firstLastAcc)
	if !ok {
		return mergeTypeErr(a, other)
	}
	if !o.seen {
		return nil
	}
	if a.first && a.seen {
		return nil
	}
	a.val, a.seen = o.val, true
	return nil
}

func (a *firstLastAcc) Result() types.Datum {
	if !a.seen {
		return types.Null
	}
	return a.val
}

// distinctAcc wraps another accumulator, feeding it each distinct value
// exactly once. Merging unions the seen-sets and replays the union into a
// fresh inner accumulator, which keeps DISTINCT exact under slice sharing.
type distinctAcc struct {
	seen  map[string]types.Datum
	inner Acc
	key   []byte // scratch for the probed value's key
}

func (a *distinctAcc) Add(v types.Datum) error {
	if v.IsNull() {
		return nil
	}
	a.key = v.AppendKey(a.key[:0])
	if _, ok := a.seen[string(a.key)]; ok {
		return nil
	}
	a.seen[string(a.key)] = v
	return a.inner.Add(v)
}

func (a *distinctAcc) Merge(other Acc) error {
	o, ok := other.(*distinctAcc)
	if !ok {
		return mergeTypeErr(a, other)
	}
	for k, v := range o.seen {
		if _, ok := a.seen[k]; !ok {
			a.seen[k] = v
			if err := a.inner.Add(v); err != nil {
				return err
			}
		}
	}
	return nil
}

func (a *distinctAcc) Result() types.Datum { return a.inner.Result() }

func mergeTypeErr(a, b Acc) error {
	return fmt.Errorf("expr: cannot merge %T into %T", b, a)
}
