// Package cfg builds and analyzes control-flow graphs of MPL programs —
// the representation the paper's offline analysis operates on (§2). A CFG
// has an entry and an exit node, branch nodes for loop and condition
// expressions, and dedicated nodes for the send, receive, bcast, and
// checkpoint statements that generate the events of the system model.
// Compute statements (assignments, work) also get nodes so the graph fully
// reflects program order.
//
// The package provides the standard analyses the paper relies on:
// dominators, backward-edge detection (loops), reachability and path
// extraction, and enumeration of checkpoint indexes (the C_i of §2).
package cfg

import (
	"fmt"
	"sync"

	"repro/internal/mpl"
)

// NodeKind classifies CFG nodes.
type NodeKind int

// Node kinds.
const (
	KindEntry NodeKind = iota + 1
	KindExit
	KindBranch  // while or if condition
	KindCompute // assign or work
	KindSend
	KindRecv
	KindBcast
	KindReduce
	KindChkpt
)

// String names the kind.
func (k NodeKind) String() string {
	switch k {
	case KindEntry:
		return "entry"
	case KindExit:
		return "exit"
	case KindBranch:
		return "branch"
	case KindCompute:
		return "compute"
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindBcast:
		return "bcast"
	case KindReduce:
		return "reduce"
	case KindChkpt:
		return "chkpt"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// EdgeKind classifies control edges.
type EdgeKind int

// Edge kinds. Branch nodes emit True/False edges; everything else emits Seq.
const (
	EdgeSeq EdgeKind = iota + 1
	EdgeTrue
	EdgeFalse
)

// String names the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgeSeq:
		return "seq"
	case EdgeTrue:
		return "true"
	case EdgeFalse:
		return "false"
	default:
		return fmt.Sprintf("edge(%d)", int(k))
	}
}

// Edge is a directed control edge.
type Edge struct {
	From int
	To   int
	Kind EdgeKind
}

// Node is one CFG node.
type Node struct {
	ID   int
	Kind NodeKind
	Stmt mpl.Stmt // nil for entry/exit
}

// Label names the node for diagnostics and DOT rendering. It is computed
// on demand: labels are pure presentation, and eagerly formatting one per
// node used to dominate CFG construction cost.
func (n *Node) Label() string {
	switch n.Kind {
	case KindEntry:
		return "ENTRY"
	case KindExit:
		return "EXIT"
	default:
		return mpl.DescribeStmt(n.Stmt)
	}
}

// Graph is a control-flow graph. Nodes are indexed by ID (dense, starting
// at 0); Entry and Exit name the distinguished nodes.
type Graph struct {
	Nodes []*Node
	Edges []Edge
	Entry int
	Exit  int

	// Grouped adjacency, built once after construction: succEdges[id] and
	// predEdges[id] are subslices of two shared backing arrays, so Succs
	// and Preds are allocation-free.
	succEdges [][]Edge
	predEdges [][]Edge

	// Cached analyses. A Graph is immutable after Build, so dominator sets
	// and back edges are computed at most once; the sync.Once guards make
	// the caches safe under concurrent read-only use (parallel analysis).
	domOnce  sync.Once
	dom      []Bitset
	backOnce sync.Once
	back     []Edge

	// cache is the BuildCache this graph was carved from (nil for plain
	// Build); the lazy analyses reuse its buffers too.
	cache *BuildCache
}

// Succs returns the edges leaving node id. The returned slice is shared —
// callers must not modify it.
func (g *Graph) Succs(id int) []Edge { return g.succEdges[id] }

// Preds returns the edges entering node id. The returned slice is shared —
// callers must not modify it.
func (g *Graph) Preds(id int) []Edge { return g.predEdges[id] }

// NodesOfKind returns the ids of all nodes with the given kind, in id order.
func (g *Graph) NodesOfKind(kind NodeKind) []int {
	return g.AppendNodesOfKind(kind, nil)
}

// AppendNodesOfKind appends the ids of all nodes with the given kind, in id
// order, to dst — the allocation-free variant of NodesOfKind.
func (g *Graph) AppendNodesOfKind(kind NodeKind, dst []int) []int {
	for _, n := range g.Nodes {
		if n.Kind == kind {
			dst = append(dst, n.ID)
		}
	}
	return dst
}

// builder state for Build. Nodes are carved from one slab sized to the
// statement count (every statement yields exactly one node, plus
// entry/exit), so construction performs no per-node allocation. spare
// recycles dead frontier backings (see Build) so nested control flow
// stops allocating once the deepest nesting has been visited.
type builder struct {
	g     *Graph
	slab  []Node
	spare [][]dangling
}

// dangling is a (node, edge-kind) pair awaiting connection to the next
// node in sequence during construction.
type dangling struct {
	from int
	kind EdgeKind
}

// BuildCache recycles CFG construction buffers across repeated builds —
// the fixpoint driver in place rebuilds the CFG every round, and without
// reuse each rebuild pays the full slab/adjacency/dominator allocation
// bill again. A graph produced by BuildCached aliases its cache's
// buffers, so it is valid only until the next BuildCached call with the
// same cache; callers that need a graph to outlive the cache (or build
// concurrently) pass nil. Not safe for concurrent use.
type BuildCache struct {
	slab        []Node
	nodes       []*Node
	edges       []Edge
	deg         []int
	edgeBacking []Edge
	adj         [][]Edge
	spare       [][]dangling

	// Lazy-analysis buffers (Dominators / BackEdges).
	domWords []uint64
	dom      []Bitset
	meet     Bitset
	back     []Edge
}

// grown returns buf with length 0 and capacity ≥ n, reusing its backing
// array when possible. Contents are garbage; callers append.
func grown[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:0]
	}
	return make([]T, 0, n)
}

// grownLen returns buf with length exactly n, reusing its backing array
// when possible. Contents are garbage; callers must overwrite every entry.
func grownLen[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// take returns a length-1 frontier holding d, reusing a recycled backing
// when one is available. An empty freelist is refilled in bulk: one slab
// carved into fixed-capacity slots, so deep if/while nests cost one
// allocation per eight frontiers instead of one each. The slots use
// three-index slices, so a frontier outgrowing its slot reallocates
// normally rather than bleeding into a sibling.
func (b *builder) take(d dangling) []dangling {
	if len(b.spare) == 0 {
		// Slots lost to un-recyclable frontiers (merges, the final frontier)
		// drain the freelist a little every build; 32 slots per refill keeps
		// the cached-build steady state at one slab per several rounds.
		const slots, slotCap = 32, 4
		slab := make([]dangling, slots*slotCap)
		for i := 0; i < slots; i++ {
			lo := i * slotCap
			b.spare = append(b.spare, slab[lo:lo:lo+slotCap])
		}
	}
	k := len(b.spare)
	s := b.spare[k-1][:0]
	b.spare = b.spare[:k-1]
	return append(s, d)
}

// recycle donates a dead frontier's backing to later take calls. Callers
// must guarantee no live slice shares it.
func (b *builder) recycle(f []dangling) {
	if cap(f) > 0 {
		b.spare = append(b.spare, f[:0])
	}
}

func (b *builder) newNode(kind NodeKind, stmt mpl.Stmt) int {
	id := len(b.g.Nodes)
	b.slab = append(b.slab, Node{ID: id, Kind: kind, Stmt: stmt})
	b.g.Nodes = append(b.g.Nodes, &b.slab[len(b.slab)-1])
	return id
}

func (b *builder) addEdge(from, to int, kind EdgeKind) {
	b.g.Edges = append(b.g.Edges, Edge{From: from, To: to, Kind: kind})
}

// finalize builds the grouped adjacency in two counting passes over Edges:
// one backing array per direction, subsliced per node, so construction does
// no per-node slice growth and Succs/Preds are allocation-free afterwards.
// Edge order within a node's Succs/Preds follows Edges order, matching the
// insertion order the incremental construction used to produce.
func (g *Graph) finalize(c *BuildCache) {
	n := len(g.Nodes)
	c.deg = grownLen(c.deg, 2*n)
	deg := c.deg
	for i := range deg {
		deg[i] = 0
	}
	outDeg, inDeg := deg[:n], deg[n:]
	for _, e := range g.Edges {
		outDeg[e.From]++
		inDeg[e.To]++
	}
	c.edgeBacking = grownLen(c.edgeBacking, 2*len(g.Edges))
	edgeBacking := c.edgeBacking
	succBacking, predBacking := edgeBacking[:len(g.Edges)], edgeBacking[len(g.Edges):]
	c.adj = grownLen(c.adj, 2*n)
	adj := c.adj
	g.succEdges, g.predEdges = adj[:n], adj[n:]
	off := 0
	for id := 0; id < n; id++ {
		g.succEdges[id] = succBacking[off : off : off+outDeg[id]]
		off += outDeg[id]
	}
	off = 0
	for id := 0; id < n; id++ {
		g.predEdges[id] = predBacking[off : off : off+inDeg[id]]
		off += inDeg[id]
	}
	for _, e := range g.Edges {
		g.succEdges[e.From] = append(g.succEdges[e.From], e)
		g.predEdges[e.To] = append(g.predEdges[e.To], e)
	}
}

// Build constructs the CFG of a program. Each statement yields exactly one
// node; while and if statements yield branch nodes whose True edge enters
// the body/then and whose False edge leaves the loop / enters the else.
func Build(p *mpl.Program) (*Graph, error) { return BuildCached(p, nil) }

// BuildCached is Build with recycled construction buffers. The returned
// graph aliases the cache and is invalidated by the next BuildCached call
// with the same cache — see BuildCache. A nil cache builds fresh.
func BuildCached(p *mpl.Program, c *BuildCache) (*Graph, error) {
	if c == nil {
		c = &BuildCache{}
	}
	nstmt := p.StmtCount() + 2
	b := &builder{
		g: &Graph{
			Nodes: grown(c.nodes, nstmt),
			Edges: grown(c.edges, nstmt+nstmt/2),
			cache: c,
		},
		slab:  grown(c.slab, nstmt),
		spare: c.spare,
	}
	entry := b.newNode(KindEntry, nil)
	b.g.Entry = entry
	connect := func(frontier []dangling, to int) {
		for _, d := range frontier {
			b.addEdge(d.from, to, d.kind)
		}
	}

	var buildBody func(body []mpl.Stmt, frontier []dangling) ([]dangling, error)
	buildBody = func(body []mpl.Stmt, frontier []dangling) ([]dangling, error) {
		for _, s := range body {
			var kind NodeKind
			switch s.(type) {
			case *mpl.Assign, *mpl.Work:
				kind = KindCompute
			case *mpl.Send:
				kind = KindSend
			case *mpl.Recv:
				kind = KindRecv
			case *mpl.Bcast:
				kind = KindBcast
			case *mpl.Reduce:
				kind = KindReduce
			case *mpl.Chkpt:
				kind = KindChkpt
			case *mpl.While, *mpl.If:
				kind = KindBranch
			default:
				return nil, fmt.Errorf("cfg: unknown statement type %T", s)
			}
			id := b.newNode(kind, s)
			connect(frontier, id)
			switch st := s.(type) {
			case *mpl.While:
				bodyEnd, err := buildBody(st.Body, b.take(dangling{id, EdgeTrue}))
				if err != nil {
					return nil, err
				}
				// Backward edges to the loop header.
				connect(bodyEnd, id)
				b.recycle(bodyEnd)
				frontier = append(frontier[:0], dangling{id, EdgeFalse})
			case *mpl.If:
				thenEnd, err := buildBody(st.Then, b.take(dangling{id, EdgeTrue}))
				if err != nil {
					return nil, err
				}
				elseEnd, err := buildBody(st.Else, b.take(dangling{id, EdgeFalse}))
				if err != nil {
					return nil, err
				}
				merged := append(thenEnd, elseEnd...)
				// elseEnd's backing was copied out; thenEnd's was either
				// extended in place (now owned by merged) or, if append
				// grew, also left dead — only the provably dead one is safe
				// to recycle.
				b.recycle(elseEnd)
				frontier = merged
			default:
				// The incoming frontier's entries were just consumed by
				// connect, so its backing can host the successor frontier —
				// the straight-line common case allocates nothing.
				frontier = append(frontier[:0], dangling{id, EdgeSeq})
			}
		}
		return frontier, nil
	}

	frontier, err := buildBody(p.Body, []dangling{{entry, EdgeSeq}})
	if err != nil {
		return nil, err
	}
	exit := b.newNode(KindExit, nil)
	b.g.Exit = exit
	connect(frontier, exit)
	b.g.finalize(c)
	// Hand the (possibly regrown) buffers back for the next build.
	c.slab, c.nodes, c.edges, c.spare = b.slab, b.g.Nodes, b.g.Edges, b.spare
	return b.g, nil
}

// Dominators computes the immediate-dominator-free dominator sets: dom[v]
// is the set (as a bitset indexed by node id) of nodes that dominate v. A
// node a dominates b when every path from entry to b includes a (§2).
//
// The result is computed once and cached — the Graph is immutable after
// Build — with all rows carved from one backing array, so repeated queries
// (back-edge tests, Phase III dominator chains) cost nothing. Callers must
// not modify the returned sets.
func (g *Graph) Dominators() []Bitset {
	g.domOnce.Do(g.computeDominators)
	return g.dom
}

func (g *Graph) computeDominators() {
	n := len(g.Nodes)
	words := (n + 63) / 64
	var backing []uint64
	var dom []Bitset
	var meet Bitset
	if c := g.cache; c != nil {
		c.domWords = grownLen(c.domWords, n*words)
		backing = c.domWords
		for i := range backing {
			backing[i] = 0
		}
		c.dom = grownLen(c.dom, n)
		dom = c.dom
		c.meet = Bitset(grownLen([]uint64(c.meet), words))
		meet = c.meet
	} else {
		backing = make([]uint64, n*words)
		dom = make([]Bitset, n)
		meet = NewBitset(n)
	}
	for v := range dom {
		dom[v] = Bitset(backing[v*words : (v+1)*words])
		if v == g.Entry {
			dom[v].Set(g.Entry)
		} else {
			for i := 0; i < n; i++ {
				dom[v].Set(i)
			}
		}
	}
	changed := true
	for changed {
		changed = false
		for v := 0; v < n; v++ {
			if v == g.Entry {
				continue
			}
			preds := g.predEdges[v]
			if len(preds) == 0 {
				// Unreachable node: dominated by everything (vacuous).
				continue
			}
			meet.CopyFrom(dom[preds[0].From])
			for _, e := range preds[1:] {
				meet.IntersectWith(dom[e.From])
			}
			meet.Set(v)
			if !meet.Equal(dom[v]) {
				dom[v].CopyFrom(meet)
				changed = true
			}
		}
	}
	g.dom = dom
}

// Dominates reports whether a dominates b under the given dominator sets.
func Dominates(dom []Bitset, a, b int) bool { return dom[b].Has(a) }

// BackEdges returns the edges ⟨a,b⟩ where b dominates a — the loop edges of
// the graph (§2's backward edges). The result is cached; callers must not
// modify it.
func (g *Graph) BackEdges() []Edge {
	g.backOnce.Do(func() {
		dom := g.Dominators()
		cnt := 0
		for _, e := range g.Edges {
			if Dominates(dom, e.To, e.From) {
				cnt++
			}
		}
		if cnt == 0 {
			return
		}
		if c := g.cache; c != nil {
			g.back = grown(c.back, cnt)
		} else {
			g.back = make([]Edge, 0, cnt)
		}
		for _, e := range g.Edges {
			if Dominates(dom, e.To, e.From) {
				g.back = append(g.back, e)
			}
		}
		if c := g.cache; c != nil {
			c.back = g.back
		}
	})
	return g.back
}

// IsBackEdge reports whether e is a backward control edge (its target
// dominates its source). It answers from the cached dominator sets in O(1),
// replacing the map[Edge]bool sets the path searches used to rebuild per
// query.
func (g *Graph) IsBackEdge(e Edge) bool {
	dom := g.Dominators()
	return dom[e.From].Has(e.To)
}

// NaturalLoop returns the node set of the natural loop of back edge ⟨a,b⟩:
// all nodes that can reach a without passing through b, plus b.
func (g *Graph) NaturalLoop(back Edge) Bitset {
	loop := NewBitset(len(g.Nodes))
	loop.Set(back.To)
	stack := []int{back.From}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if loop.Has(v) {
			continue
		}
		loop.Set(v)
		for _, e := range g.Preds(v) {
			stack = append(stack, e.From)
		}
	}
	return loop
}

// Reachable returns the bitset of nodes reachable from start via control
// edges (including start itself).
func (g *Graph) Reachable(start int) Bitset {
	seen := NewBitset(len(g.Nodes))
	stack := []int{start}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen.Has(v) {
			continue
		}
		seen.Set(v)
		for _, e := range g.Succs(v) {
			if !seen.Has(e.To) {
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}

// PathExists reports whether a control path from a to b exists (a path of
// length zero counts: PathExists(x, x) is true).
func (g *Graph) PathExists(a, b int) bool {
	return g.Reachable(a).Has(b)
}

// FindPath returns one shortest control path from a to b as a node id
// sequence, or nil when none exists.
func (g *Graph) FindPath(a, b int) []int {
	if a == b {
		return []int{a}
	}
	prev := make([]int, len(g.Nodes))
	for i := range prev {
		prev[i] = -1
	}
	queue := []int{a}
	seen := NewBitset(len(g.Nodes))
	seen.Set(a)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range g.Succs(v) {
			if seen.Has(e.To) {
				continue
			}
			seen.Set(e.To)
			prev[e.To] = v
			if e.To == b {
				var path []int
				for x := b; x != -1; x = prev[x] {
					path = append(path, x)
					if x == a {
						break
					}
				}
				reverse(path)
				return path
			}
			queue = append(queue, e.To)
		}
	}
	return nil
}

func reverse(a []int) {
	for i, j := 0, len(a)-1; i < j; i, j = i+1, j-1 {
		a[i], a[j] = a[j], a[i]
	}
}
