package shard

import (
	"sync"

	"streamrel/internal/sql"
)

// streamMeta is what the router needs to know about one partitioned base
// stream: the partition column's name and schema position.
type streamMeta struct {
	partCol string
	partIdx int
}

// mirror is the router's shadow of the cluster catalog, maintained from
// the DDL that flows through the router (which is also what keeps the
// shards' schemas identical — DDL applied behind the router's back
// breaks the routing invariants, so don't).
//
// It answers two questions: which base streams are partitioned (and on
// which column), and which derived relations — derived streams, views,
// channel-fed Active Tables — carry partitioned data and therefore need
// scatter-gather.
type mirror struct {
	mu sync.RWMutex
	// part: partitioned base stream name → partition metadata.
	part map[string]streamMeta
	// feeds: derived stream / view / Active Table name → the partitioned
	// base stream whose rows (transitively) feed it.
	feeds map[string]string
	// derivedSQL: derived stream name → its defining query, for resolving
	// chains when a channel or view builds on a derived stream.
	derived map[string]*sql.Select
}

func newMirror() *mirror {
	return &mirror{
		part:    make(map[string]streamMeta),
		feeds:   make(map[string]string),
		derived: make(map[string]*sql.Select),
	}
}

// observe updates the mirror after stmt was applied on every shard.
func (m *mirror) observe(stmt sql.Statement) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch s := stmt.(type) {
	case *sql.CreateStream:
		if s.PartitionBy == "" {
			return
		}
		for i, c := range s.Columns {
			if c.Name == s.PartitionBy {
				m.part[s.Name] = streamMeta{partCol: s.PartitionBy, partIdx: i}
				return
			}
		}
	case *sql.CreateDerivedStream:
		if base := m.baseOfSelectLocked(s.Query); base != "" {
			m.feeds[s.Name] = base
		}
		m.derived[s.Name] = s.Query
	case *sql.CreateView:
		if base := m.baseOfSelectLocked(s.Query); base != "" {
			m.feeds[s.Name] = base
		}
	case *sql.CreateChannel:
		if base := m.baseOfLocked(s.From); base != "" {
			m.feeds[s.Into] = base
		}
	case *sql.Drop:
		delete(m.part, s.Name)
		delete(m.feeds, s.Name)
		delete(m.derived, s.Name)
	}
}

// baseOfLocked resolves a relation name to the partitioned base stream
// feeding it ("" when the relation holds replicated or single-shard data).
func (m *mirror) baseOfLocked(name string) string {
	if _, ok := m.part[name]; ok {
		return name
	}
	return m.feeds[name]
}

// partMeta returns the partition metadata of a partitioned base stream.
func (m *mirror) partMeta(stream string) (streamMeta, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	sm, ok := m.part[stream]
	return sm, ok
}

// partColOf returns the partition column name of the base stream feeding
// relation name ("" when not partitioned).
func (m *mirror) partColOf(name string) string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	base := m.baseOfLocked(name)
	if base == "" {
		return ""
	}
	return m.part[base].partCol
}

// baseOfSelect resolves the (first) partitioned base stream a query
// reads from, walking joins, subqueries and derived-stream references.
func (m *mirror) baseOfSelect(sel *sql.Select) string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.baseOfSelectLocked(sel)
}

func (m *mirror) baseOfSelectLocked(sel *sql.Select) string {
	if sel == nil {
		return ""
	}
	for _, ref := range sel.From {
		if base := m.baseOfRefLocked(ref); base != "" {
			return base
		}
	}
	if sel.SetOp != nil {
		return m.baseOfSelectLocked(sel.SetOp.Right)
	}
	return ""
}

func (m *mirror) baseOfRefLocked(ref sql.TableRef) string {
	switch r := ref.(type) {
	case *sql.BaseTable:
		return m.baseOfLocked(r.Name)
	case *sql.Subquery:
		return m.baseOfSelectLocked(r.Query)
	case *sql.Join:
		if base := m.baseOfRefLocked(r.Left); base != "" {
			return base
		}
		return m.baseOfRefLocked(r.Right)
	}
	return ""
}

// isPartitionedStream reports whether name is a partitioned base stream.
func (m *mirror) isPartitionedStream(name string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.part[name]
	return ok
}
