package storage

import (
	"slices"
	"sort"
	"sync"

	"streamrel/internal/types"
)

// btreeDegree is the maximum number of children per interior node. Chosen
// for cache-friendliness; correctness does not depend on it.
const btreeDegree = 64

// item is one (key, rowid) pair. Duplicate keys are allowed; ties break on
// RowID so every item is unique and deletable.
type item struct {
	key types.Row
	rid RowID
}

func itemLess(a, b item) bool {
	if c := types.CompareRows(a.key, b.key); c != 0 {
		return c < 0
	}
	return a.rid < b.rid
}

// node is a B-tree node. Leaf nodes have no children.
type node struct {
	items    []item
	children []*node
}

func (n *node) leaf() bool { return len(n.children) == 0 }

// splitNode is a node made by a split, allocated with its items' array: a
// node never holds more than btreeDegree-1 items, so it never regrows it.
type splitNode struct {
	node
	arr [btreeDegree - 1]item
}

// BTree is an in-memory B-tree keyed by datum rows, mapping to heap RowIDs.
// It backs CREATE INDEX and is also used by the sorted side of merge
// strategies. Safe for concurrent use.
type BTree struct {
	mu   sync.RWMutex
	root *node
	size int
}

// NewBTree returns an empty tree.
func NewBTree() *BTree { return &BTree{root: &node{}} }

// Len returns the number of entries.
func (t *BTree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// Insert adds (key, rid).
func (t *BTree) Insert(key types.Row, rid RowID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	it := item{key: key, rid: rid}
	if len(t.root.items) >= btreeDegree-1 {
		old := t.root
		t.root = &node{children: []*node{old}}
		t.splitChild(t.root, 0)
	}
	t.insertNonFull(t.root, it)
	t.size++
}

func (t *BTree) splitChild(parent *node, i int) {
	child := parent.children[i]
	mid := len(child.items) / 2
	midItem := child.items[mid]
	sn := new(splitNode)
	right := &sn.node
	right.items = append(sn.arr[:0], child.items[mid+1:]...)
	if !child.leaf() {
		right.children = append(make([]*node, 0, btreeDegree), child.children[mid+1:]...)
		clear(child.children[mid+1:])
		child.children = child.children[:mid+1]
	}
	// The moved half must not stay reachable from the child: a key later
	// deleted from right would pin its heap row (see Delete).
	clear(child.items[mid:])
	child.items = child.items[:mid]
	parent.items = append(parent.items, item{})
	copy(parent.items[i+1:], parent.items[i:])
	parent.items[i] = midItem
	parent.children = append(parent.children, nil)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = right
}

func (t *BTree) insertNonFull(n *node, it item) {
	i := sort.Search(len(n.items), func(j int) bool { return itemLess(it, n.items[j]) })
	if n.leaf() {
		n.items = append(n.items, item{})
		copy(n.items[i+1:], n.items[i:])
		n.items[i] = it
		return
	}
	if len(n.children[i].items) >= btreeDegree-1 {
		t.splitChild(n, i)
		if itemLess(n.items[i], it) {
			i++
		}
	}
	t.insertNonFull(n.children[i], it)
}

// Delete removes (key, rid) if present, reporting whether it was found.
// Deletion uses lazy rebalancing (no merge): nodes may become sparse but
// never invalid, and cost memory, not correctness. A removed item's slot is
// cleared: an index key may be a view of its heap row, which it must not pin.
func (t *BTree) Delete(key types.Row, rid RowID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	it := item{key: key, rid: rid}
	if t.deleteFrom(t.root, it) {
		t.size--
		// Collapse a root that lost all items but kept one child.
		for len(t.root.items) == 0 && !t.root.leaf() {
			t.root = t.root.children[0]
		}
		return true
	}
	return false
}

func (t *BTree) deleteFrom(n *node, it item) bool {
	i := sort.Search(len(n.items), func(j int) bool { return !itemLess(n.items[j], it) })
	if i < len(n.items) && !itemLess(it, n.items[i]) && !itemLess(n.items[i], it) {
		// Found at position i.
		if n.leaf() {
			n.items = slices.Delete(n.items, i, i+1)
			return true
		}
		// Replace with the predecessor, taken out of the left subtree; a left
		// subtree that lazy deletion has emptied goes, and the item with it.
		if pred, ok := popMax(n.children[i]); ok {
			n.items[i] = pred
		} else {
			n.items = slices.Delete(n.items, i, i+1)
			n.children = slices.Delete(n.children, i, i+1)
		}
		return true
	}
	if n.leaf() {
		return false
	}
	return t.deleteFrom(n.children[i], it)
}

// popMax removes and returns the largest item below n, if there is one. An
// emptied rightmost subtree is dropped with the separator before it, which
// was the largest.
func popMax(n *node) (item, bool) {
	last := len(n.items) - 1
	if !n.leaf() {
		if it, ok := popMax(n.children[last+1]); ok || last < 0 {
			return it, ok
		}
		n.children = n.children[:last+1]
	} else if last < 0 {
		return item{}, false
	}
	it := n.items[last]
	n.items = slices.Delete(n.items, last, last+1)
	return it, true
}

// AscendRange visits entries with lo <= key <= hi in order; nil bounds are
// open. fn returns false to stop.
func (t *BTree) AscendRange(lo, hi types.Row, fn func(types.Row, RowID) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.ascend(t.root, lo, hi, fn)
}

func (t *BTree) ascend(n *node, lo, hi types.Row, fn func(types.Row, RowID) bool) bool {
	start := 0
	if lo != nil {
		start = sort.Search(len(n.items), func(j int) bool {
			return types.CompareRows(n.items[j].key, lo) >= 0
		})
	}
	for i := start; i <= len(n.items); i++ {
		if !n.leaf() {
			if !t.ascend(n.children[i], lo, hi, fn) {
				return false
			}
		}
		if i == len(n.items) {
			break
		}
		it := n.items[i]
		if hi != nil && types.CompareRows(it.key, hi) > 0 {
			return false
		}
		if !fn(it.key, it.rid) {
			return false
		}
		// Descendants of children[i+1] are all >= items[i] >= lo; stop
		// re-checking lo for them.
		lo = nil
	}
	return true
}

// Ascend visits every entry in key order.
func (t *BTree) Ascend(fn func(types.Row, RowID) bool) { t.AscendRange(nil, nil, fn) }

// SeekEqual visits entries whose key equals key.
func (t *BTree) SeekEqual(key types.Row, fn func(RowID) bool) {
	t.AscendRange(key, key, func(_ types.Row, rid RowID) bool { return fn(rid) })
}
