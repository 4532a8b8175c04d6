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
// partition datum's grouping key, mixed, modulo the shard count.
// Membership is static for the life of the router process — the routing
// invariant every merge step relies on is that all rows of one key live on
// exactly one shard.
package shard

import (
	"fmt"

	"streamrel/internal/server"
	"streamrel/internal/types"
)

// Map is a static shard map: key hash → position in Addrs.
type Map struct {
	Addrs []string
}

// N returns the shard count.
func (m Map) N() int { return len(m.Addrs) }

// HashDatum hashes one partition-key value with FNV-1a over its grouping
// key (types.Datum.AppendKey), so values one node groups together — 0.0 and
// -0.0, INT 42 and DOUBLE 42.0 — hash alike, and NULL keys land on one
// (arbitrary but stable) shard. FNV-1a carries a byte into higher bits only,
// so its low bits — all a small modulus reads — barely see a key's last bytes
// (a small integer's are zeros): MurmurHash3's finalizer spreads the high
// bits over them.
func HashDatum(d types.Datum) uint64 {
	var buf [32]byte
	h := uint64(14695981039346656037) // FNV-1a 64 offset basis
	for _, c := range d.AppendKey(buf[:0]) {
		h = (h ^ uint64(c)) * 1099511628211 // FNV-1a 64 prime
	}
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	return h ^ h>>33
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
