// Package rtree implements an in-memory R-tree over axis-aligned rectangles,
// written from scratch on the standard library. It is the spatial substrate
// of the C-PNN filtering phase (the role played by the spatialindex library
// in the paper's experiments): the engine bulk-loads the uncertainty regions
// of a dataset, locates f_min with one best-first MINDIST/MAXDIST descent
// (MinMaxDists) and collects the candidate set with a window search.
//
// The tree supports Guttman-style insertion with quadratic splits, deletion
// with reinsertion, lazy-update moves, window search, the best-first
// far-bound walk and Sort-Tile-Recursive (STR) bulk loading.
package rtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/geom"
)

const (
	// DefaultMaxEntries is the default node fan-out.
	DefaultMaxEntries = 16
	// DefaultMinEntries is the default minimum node occupancy.
	DefaultMinEntries = 4
)

// Tree is an R-tree mapping rectangles to values of type T. The zero value
// is not usable; construct trees with New or BulkLoad.
type Tree[T any] struct {
	root       *node[T]
	size       int
	maxEntries int
	minEntries int

	// owner tags the nodes this tree may mutate in place. Nodes carrying any
	// other tag are shared with a Clone and are copied on first write (path
	// copying), which makes Clone O(1) and a commit's index maintenance O(Δ·
	// height) instead of O(n).
	owner *cowOwner

	// findPath and choosePath are the root-to-leaf buffers of findLeaf and
	// chooseLeaf, reused by every mutation instead of grown afresh per call.
	// They are writer state: Clone hands them to the clone, the tree a
	// commit goes on mutating.
	findPath, choosePath []*node[T]
}

// nnPool recycles best-first traversal queues across MinMaxDists calls (one
// per filtering pass — hot enough that a fresh queue per call shows up in
// allocation profiles). It is one pool for every tree, not a field of each:
// the runtime keeps a used sync.Pool reachable until two collections later,
// and a pool embedded in a Tree kept the whole tree reachable with it — every
// per-query mini-view index of a shard router outlived its request by two GC
// cycles — while a tree built for one query, or cloned for one commit, never
// got a queue back from its own pool anyway. Queues are pointer-free when
// pooled; one of another instantiation's type is dropped on Get.
var nnPool sync.Pool

// cowOwner is an identity token; it must not be zero-sized, since pointers
// to distinct zero-size allocations may compare equal.
type cowOwner struct{ _ byte }

type entry[T any] struct {
	rect  geom.Rect
	child *node[T] // nil at leaf level
	item  T        // valid when child == nil
}

type node[T any] struct {
	leaf    bool
	owner   *cowOwner
	entries []entry[T]
}

// mutable returns n if this tree owns it, or a shallow copy stamped with the
// tree's tag otherwise. The caller re-links the copy into its parent.
func (t *Tree[T]) mutable(n *node[T]) *node[T] {
	if n.owner == t.owner {
		return n
	}
	return &node[T]{leaf: n.leaf, owner: t.owner, entries: append([]entry[T](nil), n.entries...)}
}

// New returns an empty tree with the given node capacities. maxEntries must
// be at least 4 and minEntries between 2 and maxEntries/2.
func New[T any](minEntries, maxEntries int) (*Tree[T], error) {
	if maxEntries < 4 {
		return nil, fmt.Errorf("rtree: maxEntries %d < 4", maxEntries)
	}
	if minEntries < 2 || minEntries > maxEntries/2 {
		return nil, fmt.Errorf("rtree: minEntries %d outside [2, %d]", minEntries, maxEntries/2)
	}
	owner := &cowOwner{}
	return &Tree[T]{
		root:       &node[T]{leaf: true, owner: owner},
		maxEntries: maxEntries,
		minEntries: minEntries,
		owner:      owner,
	}, nil
}

// NewDefault returns an empty tree with the default capacities.
func NewDefault[T any]() *Tree[T] {
	t, err := New[T](DefaultMinEntries, DefaultMaxEntries)
	if err != nil {
		panic(err) // defaults are always valid
	}
	return t
}

// Len returns the number of stored items.
func (t *Tree[T]) Len() int { return t.size }

// Clone returns a structurally independent copy of the tree: mutating either
// tree never affects the other. It is the copy-on-write primitive of the
// store's MVCC index maintenance — a committed batch clones the current index
// and applies its inserts/deletes to the copy while readers keep traversing
// the original.
//
// Clone is O(1): both trees share every node and receive fresh ownership
// tags, so the first mutation of a shared node (by either tree) copies just
// the root-to-node path. Clone itself counts as a write for the tree's
// single-writer/concurrent-readers contract.
func (t *Tree[T]) Clone() *Tree[T] {
	t.owner = &cowOwner{}
	c := &Tree[T]{
		root:       t.root,
		size:       t.size,
		maxEntries: t.maxEntries,
		minEntries: t.minEntries,
		owner:      &cowOwner{},
		findPath:   t.findPath,
		choosePath: t.choosePath,
	}
	t.findPath, t.choosePath = nil, nil
	return c
}

// Height returns the number of levels in the tree; an empty tree has height 1.
func (t *Tree[T]) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.entries[0].child {
		h++
	}
	return h
}

// Insert adds an item with the given bounding rectangle.
func (t *Tree[T]) Insert(rect geom.Rect, item T) error {
	if !rect.IsValid() {
		return fmt.Errorf("rtree: invalid rect %+v", rect)
	}
	t.insertEntry(entry[T]{rect: rect, item: item})
	t.size++
	return nil
}

// insertEntry places a validated leaf entry, splitting on overflow.
func (t *Tree[T]) insertEntry(e entry[T]) {
	leaf, path := t.chooseLeaf(e.rect)
	leaf.entries = append(leaf.entries, e)
	if len(leaf.entries) > t.maxEntries {
		t.splitAndPropagate(path)
	}
}

// measure is the metric the insertion heuristics compare nodes by: area plus
// margin. Pure area breaks down on degenerate rectangles — every 1-D interval
// embeds with zero height (geom.RectFromInterval), so all areas and therefore
// all enlargements are zero, and the heuristics stop discriminating entirely:
// chooseLeaf falls through to its first entry on every descent and
// quadraticSplit distributes entries arbitrarily, growing a tree whose
// internal boxes all overlap each other (deletes and searches then visit a
// constant fraction of the tree). Adding the margin keeps the metric strictly
// increasing under union in any single dimension, so 1-D data orders by
// interval length and 2-D behavior is unchanged in all but exact-area ties.
func measure(r geom.Rect) float64 {
	return (r.MaxX-r.MinX)*(r.MaxY-r.MinY) + (r.MaxX - r.MinX) + (r.MaxY - r.MinY)
}

// enlarge returns the measure growth needed for r to absorb other.
func enlarge(r, other geom.Rect) float64 { return measure(r.Union(other)) - measure(r) }

// chooseLeaf descends from the root to the leaf whose MBR needs the least
// enlargement, copying any shared node on the way down (the descent widens
// MBRs in place, so every node on the path must be owned). It returns the
// chosen leaf and the root-to-leaf path, which splitAndPropagate walks back
// up — re-deriving the path afterwards would cost a full-tree search per
// split and make insert cost track the tree size. The path aliases
// t.choosePath and is valid until the next chooseLeaf.
func (t *Tree[T]) chooseLeaf(rect geom.Rect) (*node[T], []*node[T]) {
	t.root = t.mutable(t.root)
	n := t.root
	path := append(t.choosePath[:0], n)
	for !n.leaf {
		best := 0
		bestEnl := math.Inf(1)
		bestArea := math.Inf(1)
		for i := range n.entries {
			enl := enlarge(n.entries[i].rect, rect)
			area := measure(n.entries[i].rect)
			if enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		n.entries[best].rect = n.entries[best].rect.Union(rect)
		child := t.mutable(n.entries[best].child)
		n.entries[best].child = child
		n = child
		path = append(path, n)
	}
	t.choosePath = path
	return n, path
}

// splitAndPropagate splits the overflowing node at the end of path (a
// root-to-node chain as returned by chooseLeaf) and walks splits upward.
func (t *Tree[T]) splitAndPropagate(path []*node[T]) {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if len(n.entries) <= t.maxEntries {
			break
		}
		if n == t.root {
			t.splitRoot()
			break
		}
		parent := path[i-1]
		a, b := t.quadraticSplit(n)
		// Replace n's entry in parent with the two halves.
		for j := range parent.entries {
			if parent.entries[j].child == n {
				parent.entries[j] = entry[T]{rect: mbr(a), child: a}
				parent.entries = append(parent.entries, entry[T]{rect: mbr(b), child: b})
				break
			}
		}
	}
}

func (t *Tree[T]) splitRoot() {
	a, b := t.quadraticSplit(t.root)
	t.root = &node[T]{
		leaf:  false,
		owner: t.owner,
		entries: []entry[T]{
			{rect: mbr(a), child: a},
			{rect: mbr(b), child: b},
		},
	}
}

// quadraticSplit splits n's entries into two nodes using Guttman's quadratic
// seed/pick-next method and returns them.
func (t *Tree[T]) quadraticSplit(n *node[T]) (*node[T], *node[T]) {
	ents := n.entries
	// Pick the pair of seeds wasting the most area together.
	s1, s2 := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < len(ents); i++ {
		for j := i + 1; j < len(ents); j++ {
			waste := measure(ents[i].rect.Union(ents[j].rect)) -
				measure(ents[i].rect) - measure(ents[j].rect)
			if waste > worst {
				worst, s1, s2 = waste, i, j
			}
		}
	}
	a := &node[T]{leaf: n.leaf, owner: t.owner, entries: []entry[T]{ents[s1]}}
	b := &node[T]{leaf: n.leaf, owner: t.owner, entries: []entry[T]{ents[s2]}}
	ra, rb := ents[s1].rect, ents[s2].rect

	rest := make([]entry[T], 0, len(ents)-2)
	for i := range ents {
		if i != s1 && i != s2 {
			rest = append(rest, ents[i])
		}
	}
	for len(rest) > 0 {
		// If one group must take everything left to reach minimum occupancy,
		// give it everything.
		if len(a.entries)+len(rest) == t.minEntries {
			a.entries = append(a.entries, rest...)
			for _, e := range rest {
				ra = ra.Union(e.rect)
			}
			break
		}
		if len(b.entries)+len(rest) == t.minEntries {
			b.entries = append(b.entries, rest...)
			for _, e := range rest {
				rb = rb.Union(e.rect)
			}
			break
		}
		// Pick the entry with the strongest preference for one group.
		bestIdx, bestDiff := 0, -1.0
		for i, e := range rest {
			d1 := enlarge(ra, e.rect)
			d2 := enlarge(rb, e.rect)
			if diff := math.Abs(d1 - d2); diff > bestDiff {
				bestDiff, bestIdx = diff, i
			}
		}
		e := rest[bestIdx]
		rest = append(rest[:bestIdx], rest[bestIdx+1:]...)
		d1, d2 := enlarge(ra, e.rect), enlarge(rb, e.rect)
		toA := d1 < d2 ||
			(d1 == d2 && measure(ra) < measure(rb)) ||
			(d1 == d2 && measure(ra) == measure(rb) && len(a.entries) <= len(b.entries))
		if toA {
			a.entries = append(a.entries, e)
			ra = ra.Union(e.rect)
		} else {
			b.entries = append(b.entries, e)
			rb = rb.Union(e.rect)
		}
	}
	return a, b
}

func mbr[T any](n *node[T]) geom.Rect {
	r := n.entries[0].rect
	for _, e := range n.entries[1:] {
		r = r.Union(e.rect)
	}
	return r
}

// Delete removes one item whose rectangle equals rect and for which match
// returns true. It reports whether an item was removed. Underfull nodes are
// dissolved and their entries reinserted, per Guttman's CondenseTree.
func (t *Tree[T]) Delete(rect geom.Rect, match func(T) bool) bool {
	path, idx := t.findLeaf(rect, match)
	if path == nil {
		return false
	}
	t.deleteAt(path, idx)
	return true
}

// Move replaces the rectangle of one item whose rectangle equals from and
// for which match returns true with to. It reports whether an item was
// found, and fails without touching the tree when to is invalid — Delete
// followed by Insert, in one descent. It follows the lazy-update R-tree's
// rule (Kwon, Lee & Lee, MDM 2002): when to fits the leaf's rectangle as
// its parent records it (or the leaf is the root), the entry is rewritten in
// place and only the ancestors' rectangles are re-tightened, bottom-up, up to
// the first one that does not change. For a moving object's small step that
// is most moves, and each costs one root-to-leaf path copy instead of a
// CondenseTree delete plus a chooseLeaf insert. Otherwise the item is
// deleted at the entry already found and inserted again.
func (t *Tree[T]) Move(from, to geom.Rect, match func(T) bool) (bool, error) {
	if !to.IsValid() {
		return false, fmt.Errorf("rtree: invalid rect %+v", to)
	}
	path, idx := t.findLeaf(from, match)
	if path == nil {
		return false, nil
	}
	last := len(path) - 1
	if last > 0 {
		parent, leaf := path[last-1], path[last]
		if !parent.entries[childIndex(parent, leaf)].rect.Contains(to) {
			item := leaf.entries[idx].item
			t.deleteAt(path, idx)
			t.insertEntry(entry[T]{rect: to, item: item})
			t.size++
			return true, nil
		}
	}
	t.ownPath(path)
	path[last].entries[idx].rect = to
	for i := last; i > 0; i-- {
		e := &path[i-1].entries[childIndex(path[i-1], path[i])]
		r := mbr(path[i])
		if e.rect == r {
			break
		}
		e.rect = r
	}
	return true, nil
}

// childIndex returns the index of child's entry in parent.
func childIndex[T any](parent, child *node[T]) int {
	for j := range parent.entries {
		if parent.entries[j].child == child {
			return j
		}
	}
	panic("rtree: path node missing from its parent")
}

// ownPath makes every node of a root-to-leaf path owned by the tree:
// copy-on-write replaces each shared node with an owned copy, re-linked into
// its (already owned) parent.
func (t *Tree[T]) ownPath(path []*node[T]) {
	for i, old := range path {
		m := t.mutable(old)
		if m == old {
			continue
		}
		if i == 0 {
			t.root = m
		} else {
			parent := path[i-1]
			parent.entries[childIndex(parent, old)].child = m
		}
		path[i] = m
	}
}

// deleteAt removes entry idx of the leaf ending path (as found by findLeaf)
// and condenses the tree.
func (t *Tree[T]) deleteAt(path []*node[T], idx int) {
	t.ownPath(path)
	leaf := path[len(path)-1]
	leaf.entries = append(leaf.entries[:idx], leaf.entries[idx+1:]...)
	t.size--

	// Condense: walk up, collecting orphaned entries from underfull nodes.
	var orphans []entry[T]
	for i := len(path) - 1; i > 0; i-- {
		n := path[i]
		parent := path[i-1]
		j := childIndex(parent, n)
		if len(n.entries) < t.minEntries {
			// Remove n from parent and orphan its entries.
			parent.entries = append(parent.entries[:j], parent.entries[j+1:]...)
			orphans = append(orphans, n.entries...)
		} else {
			// Tighten the parent's MBR for n.
			parent.entries[j].rect = mbr(n)
		}
	}
	// Shrink the root if it lost all children or has a single internal child.
	for !t.root.leaf && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
	}
	if !t.root.leaf && len(t.root.entries) == 0 {
		t.root = &node[T]{leaf: true, owner: t.owner}
	}
	// Reinsert orphaned subtrees leaf-by-leaf.
	for _, o := range orphans {
		t.reinsert(o)
	}
}

func (t *Tree[T]) reinsert(e entry[T]) {
	if e.child == nil {
		// Leaf entry: plain insert (rect already validated on the way in).
		t.insertEntry(e)
		return
	}
	var walk func(n *node[T])
	walk = func(n *node[T]) {
		if n.leaf {
			for _, le := range n.entries {
				t.reinsert(le)
			}
			return
		}
		for _, c := range n.entries {
			walk(c.child)
		}
	}
	walk(e.child)
}

// findLeaf locates a leaf containing a matching entry, returning the root
// path and the entry index, or nil. The descent prunes on containment only: a
// node's entry rect is (a superset of) the MBR of its subtree, so a leaf
// entry equal to rect can live only under ancestors whose rects contain rect.
// Descending into merely-intersecting siblings — tempting as a safety net —
// turns every delete into a near-full scan on overlap-heavy interval data and
// makes commit cost track the dataset size instead of the batch size. The
// path aliases t.findPath and is valid until the next findLeaf.
func (t *Tree[T]) findLeaf(rect geom.Rect, match func(T) bool) ([]*node[T], int) {
	t.findPath = t.findPath[:0]
	if idx := t.findFrom(t.root, rect, match); idx >= 0 {
		return t.findPath, idx
	}
	return nil, -1
}

// findFrom searches n's subtree with n's ancestors on t.findPath, leaving
// the path to the leaf there on success.
func (t *Tree[T]) findFrom(n *node[T], rect geom.Rect, match func(T) bool) int {
	t.findPath = append(t.findPath, n)
	if n.leaf {
		for i := range n.entries {
			if n.entries[i].rect == rect && match(n.entries[i].item) {
				return i
			}
		}
	} else {
		for i := range n.entries {
			if n.entries[i].rect.Contains(rect) {
				if idx := t.findFrom(n.entries[i].child, rect, match); idx >= 0 {
					return idx
				}
			}
		}
	}
	t.findPath = t.findPath[:len(t.findPath)-1]
	return -1
}

// Search calls fn for every item whose rectangle intersects the window. fn
// returning false stops the scan early.
func (t *Tree[T]) Search(window geom.Rect, fn func(geom.Rect, T) bool) {
	t.search(t.root, window, fn)
}

func (t *Tree[T]) search(n *node[T], window geom.Rect, fn func(geom.Rect, T) bool) bool {
	for i := range n.entries {
		e := &n.entries[i]
		if !e.rect.Intersects(window) {
			continue
		}
		if n.leaf {
			if !fn(e.rect, e.item) {
				return false
			}
		} else if !t.search(e.child, window, fn) {
			return false
		}
	}
	return true
}

// All calls fn for every stored item.
func (t *Tree[T]) All(fn func(geom.Rect, T) bool) {
	t.search(t.root, mbrOrInfinite(t), fn)
}

func mbrOrInfinite[T any](t *Tree[T]) geom.Rect {
	if len(t.root.entries) == 0 {
		return geom.Rect{}
	}
	return mbr(t.root)
}

// MinMaxDists writes the k = min(len(out), Len()) smallest MAXDIST over all
// stored rectangles from q into out, ascending, and returns that prefix — for
// uncertainty regions the far-point distances of the k closest witnesses, the
// last being the depth-k filter's critical distance f_k. The descent is
// best-first on MINDIST (Hjaltason–Samet): a subtree is queued only while its
// MINDIST does not exceed the k-th smallest MAXDIST seen, and the walk ends
// when the nearest queued subtree does. The kept values live in out as a
// max-heap, not a sorted buffer: k arrives unbounded off the wire, and
// k >= Len() must cost the O(n log n) of scan-and-sort, not sorted
// insertion's O(n·k).
func (t *Tree[T]) MinMaxDists(q geom.Point, out []float64) []float64 {
	k := min(len(out), t.size)
	h := out[:0]
	if k == 0 {
		return h
	}
	// bound is the heap's top once h holds k values with objects still to
	// come. With k = Len() nothing can be displaced, so h is never heapified
	// (that would only scramble the near-sorted arrival order the final sort
	// profits from) and bound stays +Inf.
	bound := math.Inf(1)
	pq := t.getQueue()
	defer t.putQueue(pq)
	pq.push(nnEntry[T]{dist: 0, node: t.root})
	for len(*pq) > 0 {
		head := pq.pop()
		if head.dist > bound {
			break // everything remaining starts farther than the k-th bound
		}
		for i := range head.node.entries {
			e := &head.node.entries[i]
			if !head.node.leaf {
				if md := e.rect.MinDist(q); md <= bound {
					pq.push(nnEntry[T]{dist: md, node: e.child})
				}
			} else if d := e.rect.MaxDist(q); len(h) < k {
				if h = append(h, d); len(h) == k && k < t.size {
					for j := k/2 - 1; j >= 0; j-- {
						siftDown(h, j)
					}
					bound = h[0]
				}
			} else if d < bound {
				h[0] = d
				siftDown(h, 0)
				bound = h[0]
			}
		}
	}
	sort.Float64s(h)
	return h
}

// MinMaxDist returns the smallest MAXDIST over all stored rectangles from q:
// the distance f_min of the paper's filtering phase, the k = 1 case of
// MinMaxDists. It returns +Inf for an empty tree.
func (t *Tree[T]) MinMaxDist(q geom.Point) float64 {
	var buf [1]float64
	if fars := t.MinMaxDists(q, buf[:]); len(fars) == 1 {
		return fars[0]
	}
	return math.Inf(1)
}

// siftDown restores the max-heap order of h below index i.
func siftDown(h []float64, i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r] > h[m] {
			m = r
		}
		if h[i] >= h[m] {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

type nnEntry[T any] struct {
	dist float64
	node *node[T]
}

// getQueue hands out an empty traversal queue, reusing a pooled backing
// array when one is available.
func (t *Tree[T]) getQueue() *nnQueue[T] {
	if q, ok := nnPool.Get().(*nnQueue[T]); ok {
		return q
	}
	q := make(nnQueue[T], 0, 2*t.maxEntries)
	return &q
}

// putQueue clears the queue's pointers and returns it to the pool.
func (t *Tree[T]) putQueue(q *nnQueue[T]) {
	h := *q
	for i := range h {
		h[i] = nnEntry[T]{}
	}
	*q = h[:0]
	nnPool.Put(q)
}

// nnQueue is a typed binary min-heap on dist. container/heap would box every
// pushed and popped entry in an interface — at one MinMaxDists traversal per
// filtering pass that boxing dominated the monitor's allocation profile, so
// the sift operations are hand-rolled.
type nnQueue[T any] []nnEntry[T]

func (q *nnQueue[T]) push(e nnEntry[T]) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].dist <= h[i].dist {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	*q = h
}

func (q *nnQueue[T]) pop() nnEntry[T] {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nnEntry[T]{} // drop the node/entry pointers for the GC
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].dist < h[l].dist {
			m = r
		}
		if h[i].dist <= h[m].dist {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*q = h
	return top
}

// Bounds returns the minimum bounding rectangle of every stored item and
// whether the tree holds any. The rectangle is maintained exactly through
// inserts and deletes, so a shard can report its live extent without a scan.
func (t *Tree[T]) Bounds() (geom.Rect, bool) {
	if t.size == 0 {
		return geom.Rect{}, false
	}
	return mbr(t.root), true
}

// PartitionSTR splits rects into k spatially contiguous groups along the X
// axis using the same sort-by-center pass as STR bulk loading, and returns
// the k-1 routing cuts that reproduce the split: group i holds exactly the
// indices whose center X coordinate c satisfies cuts[i-1] < c <= cuts[i]
// (with the missing outer cuts read as ±Inf). Rectangles with equal centers
// are never separated, so routing by cut is always consistent with the
// returned groups. Group sizes are near-equal up to tie-keeping.
func PartitionSTR(rects []geom.Rect, k int) ([][]int, []float64) {
	if k < 1 {
		k = 1
	}
	n := len(rects)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	cx := func(i int) float64 { return rects[idx[i]].Center().X }
	slices.SortFunc(idx, func(a, b int) int {
		return cmp.Or(cmp.Compare(rects[a].Center().X, rects[b].Center().X), cmp.Compare(a, b))
	})
	groups := make([][]int, k)
	cuts := make([]float64, 0, k-1)
	start := 0
	for g := 0; g < k; g++ {
		end := ((g + 1) * n) / k
		if end < start {
			end = start
		}
		if g == k-1 {
			end = n
		}
		// Keep equal centers together: a tie split across a cut would make
		// the cut-based routing disagree with the group assignment.
		for end > start && end < n && cx(end-1) == cx(end) {
			end++
		}
		groups[g] = append([]int(nil), idx[start:end]...)
		if g < k-1 {
			var cut float64
			switch {
			case n == 0:
				cut = 0
			case end == 0:
				// Everything routes right of this cut; the next float below
				// the smallest center keeps the cut list sorted (plain -1
				// would be absorbed at large magnitudes).
				cut = math.Nextafter(cx(0), math.Inf(-1))
			case end == n:
				cut = cx(n - 1)
			default:
				// Overflow-safe midpoint; rounding collisions with either
				// neighbor fall back to the left edge, which is always a
				// valid cut (>= every center left of it, < cx(end)).
				cut = cx(end-1) + (cx(end)-cx(end-1))/2
				if !(cut >= cx(end-1) && cut < cx(end)) {
					cut = cx(end - 1)
				}
			}
			cuts = append(cuts, cut)
		}
		start = end
	}
	return groups, cuts
}

// Input is a (rectangle, item) pair for bulk loading.
type Input[T any] struct {
	Rect geom.Rect
	Item T
}

// BulkLoad builds a tree from the inputs using Sort-Tile-Recursive packing,
// which yields near-optimal space utilization for static datasets — the
// common case for the benchmark workloads.
func BulkLoad[T any](inputs []Input[T], minEntries, maxEntries int) (*Tree[T], error) {
	t, err := New[T](minEntries, maxEntries)
	if err != nil {
		return nil, err
	}
	if len(inputs) == 0 {
		return t, nil
	}
	for _, in := range inputs {
		if !in.Rect.IsValid() {
			return nil, fmt.Errorf("rtree: invalid rect %+v in bulk load", in.Rect)
		}
	}
	// Leaf level.
	leaves := strPack(inputs, maxEntries)
	level := make([]entry[T], len(leaves))
	for i, lf := range leaves {
		level[i] = entry[T]{rect: mbr(lf), child: lf}
	}
	// Upper levels.
	for len(level) > 1 {
		nodes := strPackEntries(level, maxEntries)
		level = level[:0]
		for _, nd := range nodes {
			level = append(level, entry[T]{rect: mbr(nd), child: nd})
		}
	}
	if len(leaves) == 1 {
		t.root = leaves[0]
	} else {
		t.root = level[0].child
	}
	t.size = len(inputs)
	stampOwner(t.root, t.owner)
	return t, nil
}

// stampOwner claims every node of a freshly built subtree for owner.
func stampOwner[T any](n *node[T], owner *cowOwner) {
	n.owner = owner
	if !n.leaf {
		for i := range n.entries {
			stampOwner(n.entries[i].child, owner)
		}
	}
}

// strKey is one sort key of an STR pass: a centre coordinate and the index
// of the rectangle it belongs to. Sorting 16-byte keys with an inline
// compare runs the same pdqsort over the same comparisons as sorting the
// rectangles themselves, so the permutation is the same.
type strKey struct {
	c float64
	i int
}

func cmpStrKey(a, b strKey) int {
	if a.c < b.c {
		return -1
	}
	if a.c > b.c {
		return 1
	}
	return 0
}

// strOrder returns the Sort-Tile-Recursive order of n rectangles and the
// slab size: the indices sorted on centre X, then each vertical slab of
// perSlice sorted on centre Y. A slab whose centres share one Y (every slab
// of a 1-D tree) is left as it is, which is what sorting it would do.
func strOrder(n, capPerNode int, rect func(i int) geom.Rect) ([]strKey, int) {
	keys := make([]strKey, n)
	for i := range keys {
		keys[i] = strKey{c: rect(i).Center().X, i: i}
	}
	slices.SortFunc(keys, cmpStrKey)
	sliceCount := int(math.Ceil(math.Sqrt(float64(n) / float64(capPerNode))))
	if sliceCount < 1 {
		sliceCount = 1
	}
	perSlice := int(math.Ceil(float64(n) / float64(sliceCount)))
	for s := 0; s < n; s += perSlice {
		slab := keys[s:min(s+perSlice, n)]
		y0, flat := rect(slab[0].i).Center().Y, true
		for k := range slab {
			slab[k].c = rect(slab[k].i).Center().Y
			flat = flat && slab[k].c == y0
		}
		if !flat {
			slices.SortFunc(slab, cmpStrKey)
		}
	}
	return keys, perSlice
}

// strTile cuts an STR order into nodes: each slab of perSlice keys into
// runs of capPerNode, calling fill with a new node's presized entries and
// the keys that fill them.
func strTile[T any](keys []strKey, perSlice, capPerNode int, leaf bool, fill func(dst []entry[T], keys []strKey)) []*node[T] {
	out := make([]*node[T], 0, (len(keys)+capPerNode-1)/capPerNode)
	for s := 0; s < len(keys); s += perSlice {
		slab := keys[s:min(s+perSlice, len(keys))]
		for o := 0; o < len(slab); o += capPerNode {
			run := slab[o:min(o+capPerNode, len(slab))]
			n := &node[T]{leaf: leaf, entries: make([]entry[T], len(run), capPerNode)}
			fill(n.entries, run)
			out = append(out, n)
		}
	}
	return out
}

// strPack tiles leaf inputs into leaf nodes.
func strPack[T any](inputs []Input[T], capPerNode int) []*node[T] {
	keys, perSlice := strOrder(len(inputs), capPerNode, func(i int) geom.Rect { return inputs[i].Rect })
	return strTile(keys, perSlice, capPerNode, true, func(dst []entry[T], run []strKey) {
		for k, key := range run {
			in := &inputs[key.i]
			dst[k] = entry[T]{rect: in.Rect, item: in.Item}
		}
	})
}

// strPackEntries tiles internal entries into internal nodes.
func strPackEntries[T any](ents []entry[T], capPerNode int) []*node[T] {
	keys, perSlice := strOrder(len(ents), capPerNode, func(i int) geom.Rect { return ents[i].rect })
	return strTile(keys, perSlice, capPerNode, false, func(dst []entry[T], run []strKey) {
		for k, key := range run {
			dst[k] = ents[key.i]
		}
	})
}

// Dump serializes the tree bottom-up: emit is called once per node, children
// before parents (post-order), and returns a stable reference for the node —
// for the paged checkpoint, the record offset its encoding landed at. Child
// references are passed to the parent's emit call, and Dump returns the
// root's reference. The layout round-trips exactly through Rebuild, so a
// recovered tree is structurally identical to the dumped one and yields
// byte-identical traversal orders. rects, items and children are buffers
// Dump reuses, one set per tree level: they are valid only during the emit
// call, which copies what it keeps.
func (t *Tree[T]) Dump(emit func(leaf bool, rects []geom.Rect, items []T, children []int64) (int64, error)) (int64, error) {
	type level struct {
		rects    []geom.Rect
		items    []T
		children []int64
	}
	levels := make([]level, t.Height())
	var walk func(n *node[T], depth int) (int64, error)
	walk = func(n *node[T], depth int) (int64, error) {
		lv := &levels[depth]
		rects := lv.rects[:0]
		if n.leaf {
			items := lv.items[:0]
			for i := range n.entries {
				rects = append(rects, n.entries[i].rect)
				items = append(items, n.entries[i].item)
			}
			lv.rects, lv.items = rects, items
			return emit(true, rects, items, nil)
		}
		children := lv.children[:0]
		for i := range n.entries {
			ref, err := walk(n.entries[i].child, depth+1)
			if err != nil {
				return 0, err
			}
			rects = append(rects, n.entries[i].rect)
			children = append(children, ref)
		}
		lv.rects, lv.children = rects, children
		return emit(false, rects, nil, children)
	}
	return walk(t.root, 0)
}

// rebuildMaxDepth bounds Rebuild's recursion so a corrupted checkpoint with
// a reference cycle fails instead of recursing forever. With fan-out >= 2 a
// depth-64 tree already exceeds any representable size.
const rebuildMaxDepth = 64

// Rebuild reconstructs a tree previously serialized with Dump: load resolves
// one node reference to its contents, starting from root. size is the stored
// item count. The rebuilt tree owns all its nodes.
func Rebuild[T any](root int64, size, minEntries, maxEntries int,
	load func(ref int64) (leaf bool, rects []geom.Rect, items []T, children []int64, err error)) (*Tree[T], error) {
	t, err := New[T](minEntries, maxEntries)
	if err != nil {
		return nil, err
	}
	var build func(ref int64, depth int) (*node[T], error)
	build = func(ref int64, depth int) (*node[T], error) {
		if depth > rebuildMaxDepth {
			return nil, fmt.Errorf("rtree: node nesting beyond depth %d (corrupt dump?)", rebuildMaxDepth)
		}
		leaf, rects, items, children, err := load(ref)
		if err != nil {
			return nil, err
		}
		n := &node[T]{leaf: leaf, owner: t.owner, entries: make([]entry[T], 0, len(rects))}
		if leaf {
			if len(items) != len(rects) {
				return nil, fmt.Errorf("rtree: leaf node %d has %d rects, %d items", ref, len(rects), len(items))
			}
			for i := range rects {
				n.entries = append(n.entries, entry[T]{rect: rects[i], item: items[i]})
			}
			return n, nil
		}
		if len(children) != len(rects) {
			return nil, fmt.Errorf("rtree: node %d has %d rects, %d children", ref, len(rects), len(children))
		}
		for i := range rects {
			c, err := build(children[i], depth+1)
			if err != nil {
				return nil, err
			}
			n.entries = append(n.entries, entry[T]{rect: rects[i], child: c})
		}
		return n, nil
	}
	n, err := build(root, 0)
	if err != nil {
		return nil, err
	}
	t.root = n
	t.size = size
	return t, nil
}

// CheckInvariants validates structural invariants for tests: every internal
// entry's rectangle equals the MBR of its child, occupancy bounds hold
// (except at the root) and all leaves sit at the same depth. It returns the
// first violation found.
func (t *Tree[T]) CheckInvariants() error {
	leafDepth := -1
	var walk func(n *node[T], depth int, isRoot bool) error
	walk = func(n *node[T], depth int, isRoot bool) error {
		if !isRoot {
			if len(n.entries) < t.minEntries {
				return fmt.Errorf("rtree: node at depth %d underfull (%d < %d)",
					depth, len(n.entries), t.minEntries)
			}
		}
		if len(n.entries) > t.maxEntries {
			return fmt.Errorf("rtree: node at depth %d overfull (%d > %d)",
				depth, len(n.entries), t.maxEntries)
		}
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("rtree: leaves at depths %d and %d", leafDepth, depth)
			}
			return nil
		}
		for i := range n.entries {
			e := &n.entries[i]
			if e.child == nil {
				return fmt.Errorf("rtree: internal entry without child at depth %d", depth)
			}
			if got := mbr(e.child); !e.rect.Contains(got) {
				return fmt.Errorf("rtree: MBR %+v does not contain child MBR %+v", e.rect, got)
			}
			if err := walk(e.child, depth+1, false); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.root, 0, true)
}
