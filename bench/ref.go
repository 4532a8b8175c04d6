package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"streamrel"
	"streamrel/internal/types"
)

// Every CQ the benchmark subscribes to has the output shape
// (key, count(*), sum(x)). The reference recomputes each window from the
// seeded pool with dense per-key counters, independent of the engine's
// slice, delta or re-execution machinery, and both sides reduce a window to
// an order-independent hash: the wrapping sum of groupHash over its rows.
// Windows are then chained into one FNV transcript per subscriber.

// refInput is a CQ's view of its stream's pool: for each pool row the dense
// id of its group (-1 when the CQ's WHERE drops the row) and the summed
// value. CQs with the same grouping and filter share one refInput.
type refInput struct {
	key     []int32
	val     []int64
	keys    []streamrel.Value // by key id
	keyHash []uint64          // by key id: datumHash of the key as the engine emits it
}

// buildRefInput derives a refInput from a pool. keyOf returns the row's
// group key datum and whether the row passes the CQ's filter.
func buildRefInput(pool []streamrel.Row, keyOf func(streamrel.Row) (streamrel.Value, bool), valCol int) *refInput {
	in := &refInput{key: make([]int32, len(pool)), val: make([]int64, len(pool))}
	ids := make(map[uint64]int32)
	for i, row := range pool {
		k, ok := keyOf(row)
		if !ok {
			in.key[i] = -1
			continue
		}
		h := datumHash(k)
		id, seen := ids[h]
		if !seen {
			id = int32(len(in.keyHash))
			ids[h] = id
			in.keys = append(in.keys, k)
			in.keyHash = append(in.keyHash, h)
		}
		in.key[i] = id
		in.val[i] = row[valCol].Int()
	}
	return in
}

// datumHash hashes one key datum (FNV-1a over a type tag and its bytes)
// without allocating; subscribers call it on every received row.
func datumHash(d streamrel.Value) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	switch d.Type() {
	case types.TypeString:
		h = (h ^ 's') * prime
		s := d.Str()
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime
		}
	case types.TypeInt:
		h = (h ^ 'i') * prime
		v := uint64(d.Int())
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * prime
			v >>= 8
		}
	default:
		h = (h ^ 'n') * prime
	}
	return h
}

// groupHash mixes one result row (key hash, count, sum) into 64 bits.
func groupHash(keyHash uint64, count, sum int64) uint64 {
	h := keyHash ^ (uint64(count) * 0x9e3779b97f4a7c15)
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= uint64(sum) * 0x94d049bb133111eb
	h ^= h >> 32
	return h * 0xd6e8feb86659fd93
}

// window is one window close as seen by either side: its boundary, its
// number of result rows, the totals of its count and sum columns, and the
// order-independent hash of its rows.
type window struct {
	closeUs int64
	rows    int32
	count   int64
	sum     int64
	hash    uint64
}

// reduceWindow reduces one received window.
func reduceWindow(closeUs int64, rows []streamrel.Row) window {
	w := window{closeUs: closeUs, rows: int32(len(rows))}
	for _, r := range rows {
		if len(r) < 3 {
			w.hash += 0xdead
			continue
		}
		c, s := r[1].Int(), r[2].Int()
		w.count += c
		w.sum += s
		w.hash += groupHash(datumHash(r[0]), c, s)
	}
	return w
}

// expectedWindows recomputes every window of a time-windowed
// (key, count, sum) CQ over the first total rows of stream s: the windows
// closing at multiples of advance, from the first boundary after row 0 up to
// the last row's event time, each covering [close-visible, close).
func expectedWindows(s *streamSpec, in *refInput, visible, advance, total int64) []window {
	if total <= 0 {
		return nil
	}
	count := make([]int64, len(in.keyHash))
	sum := make([]int64, len(in.keyHash))
	var hash uint64
	var groups int32
	var totCount, totSum int64
	n := int64(len(s.pool))
	apply := func(g, sign int64) {
		i := g % n
		k := in.key[i]
		if k < 0 {
			return
		}
		if count[k] != 0 {
			hash -= groupHash(in.keyHash[k], count[k], sum[k])
			groups--
		}
		count[k] += sign
		sum[k] += sign * in.val[i]
		totCount += sign
		totSum += sign * in.val[i]
		if count[k] != 0 {
			hash += groupHash(in.keyHash[k], count[k], sum[k])
			groups++
		}
	}
	last := s.tsOf(total - 1)
	first := (s.tsOf(0) + 1 + advance - 1) / advance * advance // alignUp(ts0 + 1)
	out := make([]window, 0, (last-first)/advance+1)
	var lo, hi int64
	for c := first; c <= last; c += advance {
		for hi < total && s.tsOf(hi) < c {
			apply(hi, +1)
			hi++
		}
		for lo < hi && s.tsOf(lo) < c-visible {
			apply(lo, -1)
			lo++
		}
		out = append(out, window{closeUs: c, rows: groups, count: totCount, sum: totSum, hash: hash})
	}
	return out
}

// transcript chains windows into one FNV-1a digest: close, row count and
// window hash of each, in close order.
func transcript(ws []window) string {
	h := fnv.New64a()
	var buf [20]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(buf[0:], uint64(w.closeUs))
		binary.LittleEndian.PutUint32(buf[8:], uint32(w.rows))
		binary.LittleEndian.PutUint64(buf[12:], w.hash)
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// compareWindows counts the windows of want that got does not reproduce:
// missing, extra, or differing in close time, row count or content.
func compareWindows(got, want []window) (failed int, first string) {
	note := func(format string, a ...any) {
		failed++
		if first == "" {
			first = fmt.Sprintf(format, a...)
		}
	}
	for i, w := range want {
		if i >= len(got) {
			note("window %d (close %d) missing: got %d of %d windows", i, w.closeUs, len(got), len(want))
			continue
		}
		g := got[i]
		if g != w {
			note("window %d: got %+v, want %+v", i, g, w)
		}
	}
	if extra := len(got) - len(want); extra > 0 {
		failed += extra
		if first == "" {
			first = fmt.Sprintf("%d windows beyond the %d expected", extra, len(want))
		}
	}
	return failed, first
}
