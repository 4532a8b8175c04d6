// Package shard implements horizontal scale-out for streamrel: a static
// shard map hashing a declared partition key (CREATE STREAM … PARTITION
// BY col) over N engine instances, and a router that speaks the client
// protocol in front of them — splitting keyed appends into per-shard
// sub-batches, scatter-gathering snapshot queries, and merging CQ window
// results on close (re-combining COUNT/SUM/MIN/MAX aggregates, ordered
// interleave otherwise). Per-shard replicas attach to the shards
// directly and reuse internal/repl unchanged.
//
// The placement function is deliberately boring: FNV-1a over the
// partition datum's type tag and canonical bytes, modulo the shard
// count. Membership is static for the life of the router process — the
// routing invariant every merge step relies on is that all rows of one
// key live on exactly one shard.
package shard

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"streamrel/internal/server"
	"streamrel/internal/types"
)

// Map is a static shard map: key hash → position in Addrs.
type Map struct {
	Addrs []string
}

// N returns the shard count.
func (m Map) N() int { return len(m.Addrs) }

// HashDatum hashes one partition-key value with FNV-1a over its type tag
// and canonical byte representation. NULL hashes on the tag alone, so
// NULL keys land on one (arbitrary but stable) shard.
func HashDatum(d types.Datum) uint64 {
	h := fnv.New64a()
	var buf [9]byte
	buf[0] = byte(d.Type())
	switch d.Type() {
	case types.TypeBool:
		if d.Bool() {
			buf[1] = 1
		}
		h.Write(buf[:2])
	case types.TypeInt:
		binary.LittleEndian.PutUint64(buf[1:], uint64(d.Int()))
		h.Write(buf[:9])
	case types.TypeFloat:
		binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(d.Float()))
		h.Write(buf[:9])
	case types.TypeString:
		h.Write(buf[:1])
		h.Write([]byte(d.Str()))
	case types.TypeTimestamp:
		binary.LittleEndian.PutUint64(buf[1:], uint64(d.TimestampMicros()))
		h.Write(buf[:9])
	case types.TypeInterval:
		binary.LittleEndian.PutUint64(buf[1:], uint64(d.IntervalMicros()))
		h.Write(buf[:9])
	default:
		h.Write(buf[:1])
	}
	return h.Sum64()
}

// ShardOf places one partition-key value.
func (m Map) ShardOf(d types.Datum) int {
	return int(HashDatum(d) % uint64(len(m.Addrs)))
}

// SplitWire partitions a batch of wire rows by the partition column at
// position keyCol. The result has one (possibly nil) sub-batch per
// shard; row order within each sub-batch preserves arrival order, which
// keeps per-shard CQTIME monotonicity when the input batch is ordered.
func (m Map) SplitWire(rows [][]server.WireValue, keyCol int) ([][][]server.WireValue, error) {
	out := make([][][]server.WireValue, m.N())
	for _, r := range rows {
		if keyCol >= len(r) {
			return nil, fmt.Errorf("shard: row has %d columns, partition column is %d", len(r), keyCol)
		}
		s := m.ShardOf(r[keyCol])
		out[s] = append(out[s], r)
	}
	return out, nil
}
