// Package catalog holds the metadata for every object kind in the system:
// tables, base streams, derived streams, views, channels and indexes.
// All object kinds share one relation namespace, mirroring the paper's
// design where streams are first-class schema objects alongside tables.
package catalog

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"streamrel/internal/sql"
	"streamrel/internal/storage"
	"streamrel/internal/types"
)

// Table is a stored relation. Active reports whether a channel maintains
// it continuously (an Active Table, paper §3.3).
type Table struct {
	Name    string
	Schema  types.Schema
	Heap    *storage.Heap
	Indexes []*Index
	Active  bool
}

// Index is a secondary B-tree index on a table.
type Index struct {
	Name    string
	Table   string
	Columns []int // positions in the table schema
	Tree    *storage.BTree
	run     bool // Columns ascend by one: a key is a view of its row
}

// KeyOf extracts the index key from a table row: a view of the row when the
// columns are one ascending run, as every single-column index's are, else a
// copy. The tree keeps the key only while the heap keeps the row.
func (ix *Index) KeyOf(row types.Row) types.Row {
	if c := ix.Columns; ix.run {
		return row[c[0] : c[0]+len(c) : c[0]+len(c)]
	}
	key := make(types.Row, len(ix.Columns))
	for i, c := range ix.Columns {
		key[i] = row[c]
	}
	return key
}

// Stream is a base stream: an ordered, unbounded relation with a
// designated CQTIME column (paper §3.1). SystemTime streams have their
// CQTIME column stamped by the engine at arrival ("CQTIME SYSTEM").
type Stream struct {
	Name       string
	Schema     types.Schema
	CQTimeCol  int
	SystemTime bool
	// PartitionCol is the schema position of the declared PARTITION BY
	// column (-1 when the stream is unpartitioned). Single-node engines
	// only record it; the shard router hashes it to place rows.
	PartitionCol int
}

// DerivedStream is a CREATE STREAM … AS object: an always-on continuous
// query whose results form a new stream (paper §3.2).
type DerivedStream struct {
	Name   string
	Schema types.Schema
	Query  *sql.Select
	// CloseCol is the output column holding cq_close(*), or -1. Recovery
	// uses it to resume from the last archived window (paper §4).
	CloseCol int
}

// View is a stored query definition. Views whose query references a
// stream are Streaming Views, instantiated per use (paper §3.2).
type View struct {
	Name  string
	Query *sql.Select
}

// Channel connects a derived stream to a table, making the table Active
// (paper §3.3).
type Channel struct {
	Name string
	From string // derived stream
	Into string // table
	Mode sql.ChannelMode
}

// Catalog is the in-memory metadata store. It is rebuilt from the WAL's
// DDL records at recovery.
type Catalog struct {
	mu       sync.RWMutex
	tables   map[string]*Table
	streams  map[string]*Stream
	derived  map[string]*DerivedStream
	views    map[string]*View
	channels map[string]*Channel
	indexes  map[string]*Index
	// gen counts the Create* and Drop calls, moved under mu (change): a plan
	// made at one generation reads the heaps and indexes that are there.
	gen atomic.Uint64
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:   make(map[string]*Table),
		streams:  make(map[string]*Stream),
		derived:  make(map[string]*DerivedStream),
		views:    make(map[string]*View),
		channels: make(map[string]*Channel),
		indexes:  make(map[string]*Index),
	}
}

// relationExists reports whether name is taken in the shared namespace.
// Callers hold c.mu.
func (c *Catalog) relationExists(name string) bool {
	if _, ok := c.tables[name]; ok {
		return true
	}
	if _, ok := c.streams[name]; ok {
		return true
	}
	if _, ok := c.derived[name]; ok {
		return true
	}
	if _, ok := c.views[name]; ok {
		return true
	}
	return false
}

// ErrExists wraps duplicate-name errors so IF NOT EXISTS can detect them.
type ErrExists struct{ Name string }

func (e ErrExists) Error() string { return fmt.Sprintf("catalog: %q already exists", e.Name) }

// ErrNotFound wraps missing-name errors so IF EXISTS can detect them.
type ErrNotFound struct{ Kind, Name string }

func (e ErrNotFound) Error() string {
	return fmt.Sprintf("catalog: %s %q does not exist", e.Kind, e.Name)
}

// CreateTable registers a new table with a fresh heap.
func (c *Catalog) CreateTable(name string, schema types.Schema) (*Table, error) {
	defer c.change()()
	if c.relationExists(name) {
		return nil, ErrExists{name}
	}
	t := &Table{Name: name, Schema: schema, Heap: storage.NewHeap(name, schema)}
	c.tables[name] = t
	return t, nil
}

// CreateStream registers an unpartitioned base stream.
func (c *Catalog) CreateStream(name string, schema types.Schema, cqtimeCol int, systemTime bool) (*Stream, error) {
	return c.CreateStreamPartitioned(name, schema, cqtimeCol, systemTime, -1)
}

// CreateStreamPartitioned registers a base stream with an optional
// PARTITION BY column (partitionCol = -1 for none).
func (c *Catalog) CreateStreamPartitioned(name string, schema types.Schema, cqtimeCol int, systemTime bool, partitionCol int) (*Stream, error) {
	defer c.change()()
	if c.relationExists(name) {
		return nil, ErrExists{name}
	}
	if cqtimeCol < 0 || cqtimeCol >= len(schema) {
		return nil, fmt.Errorf("catalog: stream %q: invalid CQTIME column", name)
	}
	if schema[cqtimeCol].Type != types.TypeTimestamp {
		return nil, fmt.Errorf("catalog: stream %q: CQTIME column must be TIMESTAMP", name)
	}
	if partitionCol >= len(schema) || (partitionCol >= 0 && partitionCol == cqtimeCol) {
		return nil, fmt.Errorf("catalog: stream %q: invalid PARTITION BY column", name)
	}
	if partitionCol < 0 {
		partitionCol = -1
	}
	s := &Stream{Name: name, Schema: schema, CQTimeCol: cqtimeCol, SystemTime: systemTime, PartitionCol: partitionCol}
	c.streams[name] = s
	return s, nil
}

// CreateDerivedStream registers a derived stream. The schema and CloseCol
// are computed by the planner before registration.
func (c *Catalog) CreateDerivedStream(d *DerivedStream) error {
	defer c.change()()
	if c.relationExists(d.Name) {
		return ErrExists{d.Name}
	}
	c.derived[d.Name] = d
	return nil
}

// CreateView registers a view.
func (c *Catalog) CreateView(v *View) error {
	defer c.change()()
	if c.relationExists(v.Name) {
		return ErrExists{v.Name}
	}
	c.views[v.Name] = v
	return nil
}

// CreateChannel registers a channel and marks the target table Active.
func (c *Catalog) CreateChannel(ch *Channel) error {
	defer c.change()()
	if _, ok := c.channels[ch.Name]; ok {
		return ErrExists{ch.Name}
	}
	_, isDerived := c.derived[ch.From]
	_, isBase := c.streams[ch.From]
	if !isDerived && !isBase {
		return ErrNotFound{"stream", ch.From}
	}
	t, ok := c.tables[ch.Into]
	if !ok {
		return ErrNotFound{"table", ch.Into}
	}
	c.channels[ch.Name] = ch
	t.Active = true
	return nil
}

// CreateIndex registers a B-tree index; the engine backfills it.
func (c *Catalog) CreateIndex(name, table string, cols []string) (*Index, error) {
	defer c.change()()
	if _, ok := c.indexes[name]; ok {
		return nil, ErrExists{name}
	}
	t, ok := c.tables[table]
	if !ok {
		return nil, ErrNotFound{"table", table}
	}
	positions, run := make([]int, len(cols)), len(cols) > 0
	for i, col := range cols {
		p := t.Schema.IndexOf(col)
		if p < 0 {
			return nil, fmt.Errorf("catalog: table %q has no column %q", table, col)
		}
		positions[i] = p
		run = run && p == positions[0]+i
	}
	ix := &Index{Name: name, Table: table, Columns: positions, Tree: storage.NewBTree(), run: run}
	c.indexes[name] = ix
	t.Indexes = append(t.Indexes, ix)
	return ix, nil
}

// Drop removes an object of the given kind.
func (c *Catalog) Drop(kind sql.ObjectKind, name string) error {
	defer c.change()()
	switch kind {
	case sql.ObjTable:
		t, ok := c.tables[name]
		if !ok {
			return ErrNotFound{"table", name}
		}
		for _, ch := range c.channels {
			if ch.Into == name {
				return fmt.Errorf("catalog: table %q is the target of channel %q", name, ch.Name)
			}
		}
		for _, ix := range t.Indexes {
			delete(c.indexes, ix.Name)
		}
		delete(c.tables, name)
	case sql.ObjStream:
		if _, ok := c.streams[name]; ok {
			for _, ch := range c.channels {
				if ch.From == name {
					return fmt.Errorf("catalog: stream %q feeds channel %q", name, ch.Name)
				}
			}
			delete(c.streams, name)
			return nil
		}
		if _, ok := c.derived[name]; ok {
			for _, ch := range c.channels {
				if ch.From == name {
					return fmt.Errorf("catalog: stream %q feeds channel %q", name, ch.Name)
				}
			}
			delete(c.derived, name)
			return nil
		}
		return ErrNotFound{"stream", name}
	case sql.ObjView:
		if _, ok := c.views[name]; !ok {
			return ErrNotFound{"view", name}
		}
		delete(c.views, name)
	case sql.ObjChannel:
		ch, ok := c.channels[name]
		if !ok {
			return ErrNotFound{"channel", name}
		}
		delete(c.channels, name)
		// The table stops being Active if no other channel feeds it.
		still := false
		for _, other := range c.channels {
			if other.Into == ch.Into {
				still = true
			}
		}
		if t, ok := c.tables[ch.Into]; ok && !still {
			t.Active = false
		}
	case sql.ObjIndex:
		ix, ok := c.indexes[name]
		if !ok {
			return ErrNotFound{"index", name}
		}
		delete(c.indexes, name)
		if t, ok := c.tables[ix.Table]; ok {
			for i, cand := range t.Indexes {
				if cand.Name == name {
					t.Indexes = append(t.Indexes[:i], t.Indexes[i+1:]...)
					break
				}
			}
		}
	default:
		return fmt.Errorf("catalog: cannot drop %v", kind)
	}
	return nil
}

// change takes c.mu to change the catalog, moving its generation, and
// returns the unlock.
func (c *Catalog) change() func() {
	c.mu.Lock()
	c.gen.Add(1)
	return c.mu.Unlock
}

// Gen returns the catalog's generation: it moves with every Create* and
// Drop, replicated and recovered DDL included.
func (c *Catalog) Gen() uint64 { return c.gen.Load() }

// Table looks up a table.
func (c *Catalog) Table(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	return t, ok
}

// Stream looks up a base stream.
func (c *Catalog) Stream(name string) (*Stream, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.streams[name]
	return s, ok
}

// Derived looks up a derived stream.
func (c *Catalog) Derived(name string) (*DerivedStream, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.derived[name]
	return d, ok
}

// View looks up a view.
func (c *Catalog) View(name string) (*View, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[name]
	return v, ok
}

// Channel looks up a channel.
func (c *Catalog) Channel(name string) (*Channel, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ch, ok := c.channels[name]
	return ch, ok
}

// Names returns the sorted names of one object kind ("tables", "streams",
// "views", "channels"). Streams includes derived streams.
func (c *Catalog) Names(what string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []string
	switch what {
	case "tables":
		out = appendNames(out, c.tables)
	case "streams":
		out = appendNames(appendNames(out, c.streams), c.derived)
	case "views":
		out = appendNames(out, c.views)
	case "channels":
		out = appendNames(out, c.channels)
	}
	slices.Sort(out)
	return out
}

// appendNames appends m's keys to out.
func appendNames[T any](out []string, m map[string]*T) []string {
	for n := range m {
		out = append(out, n)
	}
	return out
}

// byName lists a map's objects sorted by name.
func byName[T any](m map[string]*T) []*T {
	names := appendNames(nil, m)
	slices.Sort(names)
	out := make([]*T, len(names))
	for i, n := range names {
		out[i] = m[n]
	}
	return out
}

// Tables returns every table, sorted by name; used by checkpointing.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return byName(c.tables)
}

// Channels returns every channel, sorted by name.
func (c *Catalog) Channels() []*Channel {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return byName(c.channels)
}

// DerivedStreams returns every derived stream, sorted by name.
func (c *Catalog) DerivedStreams() []*DerivedStream {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return byName(c.derived)
}
