// Package match implements Phase II of the paper (§3.2): matching every
// receive node of a program's CFG with its candidate send node(s) and
// adding message edges, producing the extended CFG Ĝ (Algorithm 3.1).
//
// A send can feed a receive when their path attributes (from ID-dependent
// branches) and their destination/source parameters present no
// contradiction — decided exactly by the attr.Solver over bounded process
// counts. Irregular parameters (the paper's data-dependent patterns) match
// liberally. Collective statements (bcast) reduce to send/receive pairs at
// the same node, represented as a self message edge.
//
// The matcher follows the paper's DFS one-to-one rule by default: scanning
// receives in program order, each regular (non-irregular) send is matched
// at most once, mirroring Algorithm 3.1's "if the corresponding send node
// has not yet been matched". This order-respecting pairing is what FIFO
// channels produce at runtime; matching every compatible pair instead
// (Options.Liberal) creates causally-impossible backward edges between
// repeated identical patterns (a later send "feeding" an earlier receive),
// which Phase III can neither satisfy nor repair. As a soundness net for
// Lemma 3.1, any receive left unmatched after the one-to-one pass is
// re-matched liberally against all compatible sends.
//
// Compatibility is decided through precomputed attr.Tables — one per
// communication node, built once per Match call — so the send×receive
// scan performs no expression evaluation (see internal/attr/table.go).
package match

import (
	"fmt"

	"repro/internal/attr"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/mpl"
)

// MessageEdge is one matched send→receive pair in the extended CFG. For
// bcast nodes Send == Recv (the collective is its own correspondent).
type MessageEdge struct {
	Send int // CFG node id of the send (or bcast) node
	Recv int // CFG node id of the recv (or bcast) node
}

// Extended is the extended CFG Ĝ: the control-flow graph plus message
// edges and the attribute information used to derive them.
type Extended struct {
	G        *cfg.Graph
	Messages []MessageEdge
	// PathAttr holds, indexed by CFG node id, the attribute (conjunction
	// of ID-dependent branch constraints) of the control context the node
	// executes under. Entry/exit nodes hold the nil ("true") predicate.
	PathAttr []attr.Predicate
	// Params holds, indexed by CFG node id, the resolved parameter of
	// send/recv/bcast/reduce nodes (the zero Param elsewhere).
	Params []attr.Param

	msgFrom [][]int // send node id -> recv node ids

	arena   *cfg.Arena      // optional round-scoped scratch source (may be nil)
	scratch *witnessScratch // lazily built; serial use only
	reach   []*reachSets    // memoized per-source causal closures
}

// Options configures the matcher.
type Options struct {
	// Solver decides attribute satisfiability; the zero value uses
	// attr.DefaultSolver.
	Solver attr.Solver
	// Liberal matches every compatible send/receive pair instead of the
	// paper's one-to-one DFS rule. Useful for worst-case analyses; see the
	// package comment for why it is not the default.
	Liberal bool
	// Arena, when non-nil, supplies round-scoped scratch buffers for the
	// path searches over the result. The Extended is then only valid until
	// the arena's next Reset. A nil arena means plain allocation.
	Arena *cfg.Arena
	// Cache, when non-nil, reuses Phase II state across repeated Match
	// calls on successive revisions of one program — Phase III's fixpoint
	// rounds. See RoundCache for the validity contract.
	Cache *RoundCache
}

// RoundCache carries Phase II state across Phase III's fixpoint rounds.
//
// Solver tables are memoized by statement id, which is sound because the
// rounds only add, move, or remove checkpoint statements: communication
// statements keep their path attributes and resolved parameters, and
// checkpoint statements have no tables. Everything else in the cache is
// plain buffer reuse, cleared and recomputed each round (path attributes
// of moved checkpoints DO change, so they are never carried over).
//
// A RoundCache is tied to one program lineage and one solver
// configuration; the Extended built with it is invalidated by the next
// Match call using the same cache. The zero value is ready to use. Not
// safe for concurrent Match calls.
type RoundCache struct {
	attrs      map[int]attr.Predicate
	branchCtx  map[int][2]attr.Predicate // per-branch then/else (or loop-body) context conjunctions
	tables     map[int]*attr.Table       // noTable marks a cached nil (wide-bounds fallback)
	tableSlab  []attr.Table              // shared-backing storage for the cached tables
	tableUsed  int                       // tableSlab entries consumed
	pathAttr   []attr.Predicate
	params     []attr.Param
	msgFrom    [][]int
	nodeTables []*attr.Table
	reach      []*reachSets
	messages   []MessageEdge
	sends      []int
	recvs      []int
}

// grown returns buf resized to n, reusing its backing when possible; all
// n entries are zeroed either way.
func grown[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		buf = buf[:n]
		var zero T
		for i := range buf {
			buf[i] = zero
		}
		return buf
	}
	return make([]T, n)
}

// noTable is the cached-nil sentinel for RoundCache.tables: the solver
// bounds exceeded the table representation, so canMatch falls back to the
// exact enumeration. A sentinel beats a second "present" map.
var noTable = &attr.Table{}

func (o Options) solver() attr.Solver {
	if o.Solver == (attr.Solver{}) {
		return attr.DefaultSolver
	}
	return o.Solver
}

// BuildExtended runs Phase II on a program: constructs the CFG, analyzes
// data flow, computes path attributes, and matches sends with receives.
func BuildExtended(p *mpl.Program, opts Options) (*Extended, error) {
	g, err := cfg.Build(p)
	if err != nil {
		return nil, err
	}
	df := dataflow.Analyze(p)
	return Match(p, g, df, opts)
}

// Match matches sends and receives on an already-built CFG using an
// existing data-flow result.
func Match(p *mpl.Program, g *cfg.Graph, df *dataflow.Result, opts Options) (*Extended, error) {
	n := len(g.Nodes)
	x := &Extended{G: g, arena: opts.Arena}
	var attrs map[int]attr.Predicate
	if c := opts.Cache; c != nil {
		c.pathAttr = grown(c.pathAttr, n)
		c.params = grown(c.params, n)
		c.reach = grown(c.reach, n)
		// msgFrom keeps the per-send inner backings across rounds: entries
		// are truncated, not nilled, so re-appending the round's message
		// edges stops allocating once capacities warm up.
		if cap(c.msgFrom) < n {
			grownOuter := make([][]int, n)
			copy(grownOuter, c.msgFrom)
			c.msgFrom = grownOuter
		}
		c.msgFrom = c.msgFrom[:n]
		for i := range c.msgFrom {
			c.msgFrom[i] = c.msgFrom[i][:0]
		}
		x.PathAttr, x.Params, x.msgFrom, x.reach = c.pathAttr, c.params, c.msgFrom, c.reach
		if c.messages == nil {
			c.messages = make([]MessageEdge, 0, 32)
		}
		x.Messages = c.messages[:0]
		if c.attrs == nil {
			c.attrs = make(map[int]attr.Predicate, p.StmtCount())
			c.branchCtx = make(map[int][2]attr.Predicate)
		} else {
			clear(c.attrs)
		}
		attributesInto(p, df, c.attrs, c.branchCtx)
		attrs = c.attrs
	} else {
		x.PathAttr = make([]attr.Predicate, n)
		x.Params = make([]attr.Param, n)
		x.msgFrom = make([][]int, n)
		// Path attributes from the structured AST: every statement inherits
		// the ID-dependent branch constraints of its enclosing conditionals.
		attrs = Attributes(p, df)
	}
	for _, nd := range g.Nodes {
		if nd.Stmt != nil {
			x.PathAttr[nd.ID] = attrs[nd.Stmt.ID()]
		}
	}
	// Resolved parameters per node.
	for _, nd := range g.Nodes {
		switch nd.Kind {
		case cfg.KindSend, cfg.KindRecv, cfg.KindBcast, cfg.KindReduce:
			param, ok := df.Params[nd.Stmt.ID()]
			if !ok {
				return nil, fmt.Errorf("match: no resolved parameter for %s", nd.Label())
			}
			x.Params[nd.ID] = param
		}
	}

	solver := opts.solver()
	var sends, recvs []int
	if c := opts.Cache; c != nil {
		if c.sends == nil {
			// Presize: growing from nil costs a log₂ ladder of appends on
			// the very first round of every Transform.
			c.sends = make([]int, 0, 16)
			c.recvs = make([]int, 0, 16)
		}
		c.sends = g.AppendNodesOfKind(cfg.KindSend, c.sends[:0])
		c.recvs = g.AppendNodesOfKind(cfg.KindRecv, c.recvs[:0])
		sends, recvs = c.sends, c.recvs
	} else {
		sends = g.NodesOfKind(cfg.KindSend)
		recvs = g.NodesOfKind(cfg.KindRecv)
	}

	// Precompute the per-node satisfiability tables; the pair scan below
	// then runs without a single expression evaluation. Tables are nil
	// when the solver bounds exceed their representation, in which case
	// canMatch falls back to the exact enumeration. With a cache, tables
	// are memoized by statement id across fixpoint rounds (communication
	// statements never move or change attributes during Phase III).
	var tables []*attr.Table
	if c := opts.Cache; c != nil {
		c.nodeTables = grown(c.nodeTables, n)
		tables = c.nodeTables
		if c.tables == nil {
			// One comm statement can be both matched sides (bcast/reduce),
			// so sends+recvs bounds the table count; the slab must never
			// regrow — the map holds pointers into it.
			// Exact size: tableFor runs once per send and once per recv.
			c.tables = make(map[int]*attr.Table, len(sends)+len(recvs))
			c.tableSlab = solver.SlabTables(len(sends) + len(recvs))
		}
	} else {
		tables = make([]*attr.Table, n)
	}
	tableFor := func(node int) *attr.Table {
		if c := opts.Cache; c != nil {
			sid := g.Nodes[node].Stmt.ID()
			if t, ok := c.tables[sid]; ok {
				if t == noTable {
					return nil
				}
				return t
			}
			var t *attr.Table
			if c.tableUsed < len(c.tableSlab) {
				t = &c.tableSlab[c.tableUsed]
				c.tableUsed++
			} else {
				t = &attr.Table{}
			}
			if !solver.TableInto(x.PathAttr[node], x.Params[node], t) {
				c.tables[sid] = noTable
				return nil
			}
			c.tables[sid] = t
			return t
		}
		return solver.Table(x.PathAttr[node], x.Params[node])
	}
	for _, s := range sends {
		tables[s] = tableFor(s)
	}
	for _, r := range recvs {
		tables[r] = tableFor(r)
	}
	canMatch := func(s, r int) bool {
		if st, rt := tables[s], tables[r]; st != nil && rt != nil {
			return attr.CanMatchTables(st, rt)
		}
		return solver.CanMatch(x.PathAttr[s], x.Params[s], x.PathAttr[r], x.Params[r])
	}

	matchedSends := opts.Arena.Bits(n)

	// Algorithm 3.1: scan receives (DFS order ≈ node id order for our
	// structured builder), and for each, find candidate sends whose
	// attributes do not contradict. Regular sends match at most once
	// unless Liberal; irregular endpoints always match freely.
	for _, r := range recvs {
		src := x.Params[r]
		for _, s := range sends {
			dest := x.Params[s]
			if !canMatch(s, r) {
				continue
			}
			if !opts.Liberal && !dest.Wildcard && !src.Wildcard {
				// Regular pair: one-to-one in program order on both sides.
				if matchedSends.Has(s) {
					continue
				}
				matchedSends.Set(s)
				x.addMessage(s, r)
				break
			}
			// Irregular endpoint (or Liberal): match every compatible pair.
			matchedSends.Set(s)
			x.addMessage(s, r)
		}
	}

	// Soundness fallback (Lemma 3.1 requires every receive to be matched
	// with at least its true sender): re-match any receive the one-to-one
	// pass left bare, ignoring the matched-once rule.
	if !opts.Liberal {
		matchedRecvs := opts.Arena.Bits(n)
		for _, m := range x.Messages {
			matchedRecvs.Set(m.Recv)
		}
		for _, r := range recvs {
			if matchedRecvs.Has(r) {
				continue
			}
			for _, s := range sends {
				if canMatch(s, r) {
					x.addMessage(s, r)
				}
			}
		}
	}

	// Collectives: every bcast/reduce node is a matched send/recv pair
	// with itself (bcast: root → all others; reduce: all others → root —
	// either way the causality is between processes at the same
	// statement).
	for _, nd := range g.Nodes {
		if nd.Kind == cfg.KindBcast || nd.Kind == cfg.KindReduce {
			x.addMessage(nd.ID, nd.ID)
		}
	}
	if c := opts.Cache; c != nil {
		// Keep the (possibly grown) message backing for the next round.
		c.messages = x.Messages
	}
	return x, nil
}

func (x *Extended) addMessage(s, r int) {
	x.Messages = append(x.Messages, MessageEdge{Send: s, Recv: r})
	x.msgFrom[s] = append(x.msgFrom[s], r)
}

// MessageEdgesAsCFG converts the message edges to cfg.Edge values for DOT
// rendering.
func (x *Extended) MessageEdgesAsCFG() []cfg.Edge {
	out := make([]cfg.Edge, len(x.Messages))
	for i, m := range x.Messages {
		out[i] = cfg.Edge{From: m.Send, To: m.Recv}
	}
	return out
}

// Attributes computes, for every statement id, the path attribute: the
// conjunction of resolved ID-dependent branch conditions (with polarity)
// of the conditionals enclosing the statement. Non-ID-dependent branches
// are ignored, per the paper's simplification ("we ignore all the non
// ID-dependent branches").
func Attributes(p *mpl.Program, df *dataflow.Result) map[int]attr.Predicate {
	out := make(map[int]attr.Predicate, p.StmtCount())
	attributesInto(p, df, out, nil)
	return out
}

// attributesInto computes Attributes into an existing (cleared) map,
// letting the fixpoint rounds reuse one map's buckets.
//
// The per-statement attribute map must be rebuilt each round — checkpoint
// statements move between branch scopes, changing their path attributes.
// The conjunction PER BRANCH, however, is round-invariant: branch
// statements never move and the data-flow result is shared, so the inner
// context of each ID-dependent While/If is the same predicate every round.
// A non-nil ctxCache memoizes those conjunctions by branch statement id,
// making rounds after the first allocation-free here.
func attributesInto(p *mpl.Program, df *dataflow.Result, out map[int]attr.Predicate, ctxCache map[int][2]attr.Predicate) {
	attrWalk(p.Body, nil, df, out, ctxCache)
}

// attrWalk is attributesInto's recursion as a top-level function — the
// self-capturing closure it used to be escaped to the heap on every
// fixpoint round.
func attrWalk(body []mpl.Stmt, ctx attr.Predicate, df *dataflow.Result, out map[int]attr.Predicate, ctxCache map[int][2]attr.Predicate) {
	for _, s := range body {
		out[s.ID()] = ctx
		switch st := s.(type) {
		case *mpl.While:
			inner := ctx
			if bi := df.Branches[st.ID()]; bi.IDDependent {
				if v, ok := ctxCache[st.ID()]; ok {
					inner = v[0]
				} else {
					inner = ctx.And(attr.Constraint{Cond: bi.Resolved, Want: true})
					if ctxCache != nil {
						ctxCache[st.ID()] = [2]attr.Predicate{inner, nil}
					}
				}
			}
			attrWalk(st.Body, inner, df, out, ctxCache)
		case *mpl.If:
			thenCtx, elseCtx := ctx, ctx
			if bi := df.Branches[st.ID()]; bi.IDDependent {
				if v, ok := ctxCache[st.ID()]; ok {
					thenCtx, elseCtx = v[0], v[1]
				} else {
					thenCtx = ctx.And(attr.Constraint{Cond: bi.Resolved, Want: true})
					elseCtx = ctx.And(attr.Constraint{Cond: bi.Resolved, Want: false})
					if ctxCache != nil {
						ctxCache[st.ID()] = [2]attr.Predicate{thenCtx, elseCtx}
					}
				}
			}
			attrWalk(st.Then, thenCtx, df, out, ctxCache)
			attrWalk(st.Else, elseCtx, df, out, ctxCache)
		}
	}
}
