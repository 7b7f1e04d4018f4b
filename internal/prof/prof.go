// Package prof is the source-attribution analysis profiler: it aggregates
// engine events (step time, configurations spawned, joins, widenings and
// their failures, give-ups, ⊤ demotions, match-memo misses, HSM prover
// time) onto pCFG nodes and, through their spans, onto MPL source
// constructs.
//
// The collection model mirrors the obs tracer's discipline:
//
//   - A *Profiler is the per-analysis aggregator. core.Options.Profiler
//     carries it into the engine; nil means profiling is off.
//   - The engine asks the profiler for a *Lanes: one private, dense
//     []Counters buffer indexed by CFG node ID. Recording is a plain
//     (non-atomic) add — the lane is touched by exactly one goroutine, so
//     there is no contention and no synchronization on the hot path.
//   - All recording methods are nil-safe no-ops, so the disabled path is
//     a single pointer check: 0 allocs/op, proven by
//     BenchmarkProfilerDisabled (the analogue of BenchmarkTracerDisabled).
//   - After the run quiesces, the engine commits the
//     lane: Commit merges it under the profiler's mutex and
//     resolves node → source span / kind / synthetic from the CFG.
//
// Reports render three ways: a heat-annotated source listing (text), a
// machine-readable JSON report (schema "psdf-profile/1", embedding the
// program source so it is self-contained), and folded stacks for
// flamegraph/pprof tooling.
package prof

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cfg"
	"repro/internal/source"
)

// Counters is the per-node event aggregate. All counts are totals across
// committed analyses; Ns fields are cumulative wall nanoseconds.
//
// MatchNs includes the memo lookup; ProverNs is the subset of MatchNs
// spent inside memo-missing HSM searches (read as deltas of the matcher's
// cumulative prover counters around each match call).
type Counters struct {
	Steps          int64 `json:"steps,omitempty"`
	StepNs         int64 `json:"step_ns,omitempty"`
	Spawned        int64 `json:"spawned,omitempty"`
	Matches        int64 `json:"matches,omitempty"`
	Matched        int64 `json:"matched,omitempty"`
	MatchNs        int64 `json:"match_ns,omitempty"`
	MemoMisses     int64 `json:"memo_misses,omitempty"`
	ProverSearches int64 `json:"prover_searches,omitempty"`
	ProverNs       int64 `json:"prover_ns,omitempty"`
	Joins          int64 `json:"joins,omitempty"`
	Widenings      int64 `json:"widenings,omitempty"`
	WidenFailures  int64 `json:"widen_failures,omitempty"`
	GiveUps        int64 `json:"give_ups,omitempty"`
	TopDemotions   int64 `json:"top_demotions,omitempty"`
}

func (c *Counters) add(o *Counters) {
	c.Steps += o.Steps
	c.StepNs += o.StepNs
	c.Spawned += o.Spawned
	c.Matches += o.Matches
	c.Matched += o.Matched
	c.MatchNs += o.MatchNs
	c.MemoMisses += o.MemoMisses
	c.ProverSearches += o.ProverSearches
	c.ProverNs += o.ProverNs
	c.Joins += o.Joins
	c.Widenings += o.Widenings
	c.WidenFailures += o.WidenFailures
	c.GiveUps += o.GiveUps
	c.TopDemotions += o.TopDemotions
}

// zero reports whether no event was recorded against the node.
func (c *Counters) zero() bool {
	return c.Steps == 0 && c.Spawned == 0 && c.Matches == 0 &&
		c.Joins == 0 && c.Widenings == 0 && c.WidenFailures == 0 &&
		c.GiveUps == 0 && c.TopDemotions == 0
}

// WidenFailure is one distinct widening failure: the blamed node and the
// first bound-expression pair that admitted no common upper bound.
type WidenFailure struct {
	Node     int    `json:"node"`
	Line     int    `json:"line,omitempty"`
	OldBound string `json:"old_bound,omitempty"`
	NewBound string `json:"new_bound,omitempty"`
	Count    int64  `json:"count"`
}

type failKey struct {
	node     int
	old, new string
}

// Lanes is the engine-side recording surface: one private counter lane
// indexed by CFG node ID, written only by the analysis goroutine that owns
// it. Obtain one via (*Profiler).NewLanes; a nil *Lanes (profiling off)
// makes every method a no-op, so engine call sites need exactly one
// pointer check.
type Lanes struct {
	lane  []Counters     // [node]
	fails []WidenFailure // appended details (rare path; alloc OK)
}

// NewLanes sizes a lane over nodes CFG nodes. Returns nil when p is nil.
func (p *Profiler) NewLanes(nodes int) *Lanes {
	if p == nil {
		return nil
	}
	return &Lanes{lane: make([]Counters, nodes)}
}

func (l *Lanes) at(node int) *Counters {
	if node < 0 || node >= len(l.lane) {
		return nil
	}
	return &l.lane[node]
}

// Step records one engine step at node: elapsed wall time and the number
// of successor configurations it spawned.
func (l *Lanes) Step(node int, ns int64, spawned int) {
	if l == nil {
		return
	}
	if c := l.at(node); c != nil {
		c.Steps++
		c.StepNs += ns
		c.Spawned += int64(spawned)
	}
}

// Match records one client-matcher call attributed to node: elapsed time,
// the match-memo miss delta, the prover search/time deltas, and whether
// the matcher produced a plan.
func (l *Lanes) Match(node int, ns, memoMisses, proverSearches, proverNs int64, matched bool) {
	if l == nil {
		return
	}
	if c := l.at(node); c != nil {
		c.Matches++
		if matched {
			c.Matched++
		}
		c.MatchNs += ns
		c.MemoMisses += memoMisses
		c.ProverSearches += proverSearches
		c.ProverNs += proverNs
	}
}

// Combine records one revision combine at node: a join below the widening
// rung, a widening at or above it.
func (l *Lanes) Combine(node int, widen bool) {
	if l == nil {
		return
	}
	if c := l.at(node); c != nil {
		if widen {
			c.Widenings++
		} else {
			c.Joins++
		}
	}
}

// WidenFail records a widening failure at node with the first failing
// bound-expression pair (empty strings when unavailable).
func (l *Lanes) WidenFail(node int, oldBound, newBound string) {
	if l == nil {
		return
	}
	if c := l.at(node); c != nil {
		c.WidenFailures++
	}
	l.fails = append(l.fails, WidenFailure{
		Node: node, OldBound: oldBound, NewBound: newBound, Count: 1,
	})
}

// GiveUp records a committed ⊤ give-up blamed on node.
func (l *Lanes) GiveUp(node int) {
	if l == nil {
		return
	}
	if c := l.at(node); c != nil {
		c.GiveUps++
	}
}

// TopDemotion records a final-state ⊤ demotion (stale match witness)
// blamed on node.
func (l *Lanes) TopDemotion(node int) {
	if l == nil {
		return
	}
	if c := l.at(node); c != nil {
		c.TopDemotions++
	}
}

// nodeInfo is the per-node source resolution captured at commit.
type nodeInfo struct {
	kind      string
	label     string
	synthetic bool
	span      source.Span
}

// Profiler aggregates committed lanes for one analysis (or several: psdf
// profile reuses one profiler across repeated runs of the same graph).
// The zero value is not ready; use New.
type Profiler struct {
	mu    sync.Mutex
	nodes []Counters
	info  []nodeInfo
	fails map[failKey]int64
}

// New returns an empty profiler. Attach it via core.Options.Profiler.
func New() *Profiler {
	return &Profiler{fails: make(map[failKey]int64)}
}

// Commit merges the lane l into the profiler and resolves node metadata
// from g. The engine calls it once per analysis, after the run — the lane
// is quiescent, so reading it unlocked is safe; the profiler's own state
// is mutex-guarded.
func (p *Profiler) Commit(g *cfg.Graph, l *Lanes) {
	if p == nil || l == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	nodes := len(l.lane)
	if len(p.nodes) < nodes {
		grown := make([]Counters, nodes)
		copy(grown, p.nodes)
		p.nodes = grown
		p.info = make([]nodeInfo, nodes)
		for _, n := range g.Nodes {
			if n.ID >= 0 && n.ID < nodes {
				p.info[n.ID] = nodeInfo{
					kind:      n.Kind.String(),
					label:     n.Label(),
					synthetic: n.Synthetic,
					span:      n.Span,
				}
			}
		}
	}
	for id := range l.lane {
		if !l.lane[id].zero() || l.lane[id].MatchNs != 0 {
			p.nodes[id].add(&l.lane[id])
		}
	}
	for _, f := range l.fails {
		p.fails[failKey{f.Node, f.OldBound, f.NewBound}] += f.Count
	}
}

// Report snapshots the profiler into a renderable, serializable report.
// name labels the job (usually the source path); src is the program text
// embedded for self-contained listings (may be empty).
func (p *Profiler) Report(name, src string) *Report {
	r := &Report{Name: name, Source: src}
	if p == nil {
		return r
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for id := range p.nodes {
		c := &p.nodes[id]
		if c.zero() && c.MatchNs == 0 {
			continue
		}
		in := nodeInfo{}
		if id < len(p.info) {
			in = p.info[id]
		}
		np := NodeProfile{
			Node:      id,
			Kind:      in.kind,
			Label:     in.label,
			Synthetic: in.synthetic,
			Counters:  *c,
		}
		if in.span.IsValid() {
			np.Line = in.span.Start.Line
			np.Col = in.span.Start.Col
			np.EndLine = in.span.End.Line
		}
		r.Nodes = append(r.Nodes, np)
		r.Totals.add(c)
	}
	for k, n := range p.fails {
		wf := WidenFailure{Node: k.node, OldBound: k.old, NewBound: k.new, Count: n}
		if k.node >= 0 && k.node < len(p.info) && p.info[k.node].span.IsValid() {
			wf.Line = p.info[k.node].span.Start.Line
		}
		r.WidenFailures = append(r.WidenFailures, wf)
	}
	sort.Slice(r.WidenFailures, func(i, j int) bool {
		a, b := r.WidenFailures[i], r.WidenFailures[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.OldBound != b.OldBound {
			return a.OldBound < b.OldBound
		}
		return a.NewBound < b.NewBound
	})
	return r
}

// String is a one-line summary for logs.
func (r *Report) String() string {
	return fmt.Sprintf("%s: %d nodes, %d steps (%.2fms), %d widenings (%d failed), %d give-ups, %d ⊤ demotions",
		r.Name, len(r.Nodes), r.Totals.Steps, float64(r.Totals.StepNs)/1e6,
		r.Totals.Widenings, r.Totals.WidenFailures, r.Totals.GiveUps, r.Totals.TopDemotions)
}
