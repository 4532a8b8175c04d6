package streamrel

import (
	"slices"
	"sync"

	"streamrel/internal/exec"
	"streamrel/internal/plan"
	"streamrel/internal/types"
)

// The plan cache's two bounds (DESIGN §11 "The plan cache"): the statement
// texts it keeps, all dropped when one more would not fit, and the built
// trees a statement keeps idle; an execution that finds none builds one.
const maxCachedPlans, maxIdleTrees = 256, 4

// planCache keeps each snapshot SELECT's plan by its raw text, with the
// operator trees built from it that no execution holds: a call takes one,
// opens it with its own arguments (each $n is read at Open) and hands it back
// after Close. gen is the catalog generation every entry was planned at; once
// the catalog moves, the next lookup drops them all, and with them every tree
// over a heap or an index that DDL replaced or dropped.
type planCache struct {
	mu      sync.Mutex
	gen     uint64
	entries map[string]*cachedPlan
}

// cachedPlan is one statement planned for arguments of the types args.
type cachedPlan struct {
	args []types.Type
	plan *plan.Plan
	idle chan exec.Operator
}

// get returns text's entry for arguments of args' types at catalog
// generation gen, or nil.
func (c *planCache) get(text string, gen uint64, args []Value) *cachedPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != gen {
		clear(c.entries)
		c.gen = gen
	}
	ent := c.entries[text]
	if ent == nil || !slices.EqualFunc(ent.args, args, func(t types.Type, a Value) bool { return a.Type() == t }) {
		return nil
	}
	return ent
}

// put makes p text's entry for arguments of args' types, replacing any
// other, unless the catalog has moved past gen since.
func (c *planCache) put(text string, gen uint64, args []Value, p *plan.Plan) *cachedPlan {
	ent := &cachedPlan{plan: p, idle: make(chan exec.Operator, maxIdleTrees)}
	for _, a := range args {
		ent.args = append(ent.args, a.Type())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen == gen {
		if c.entries == nil || len(c.entries) >= maxCachedPlans {
			c.entries = make(map[string]*cachedPlan)
		}
		c.entries[text] = ent // query cloned it
	}
	return ent
}
