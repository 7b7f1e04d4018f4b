package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cfg"
	"repro/internal/cg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
	"repro/internal/lint"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/topology"
)

// outcome is what one pass of the pipeline produced for one program.
type outcome struct {
	G    *cfg.Graph
	Res  *core.Result
	Topo *topology.Report
	Lint *lint.Report
	Err  error
	Dur  time.Duration
	// Layers is filled on the traced path only.
	Layers *layerCounts
}

// work is the engine's host-independent work on one program. It must
// repeat exactly across sweeps, runs and the traced/untraced paths.
type work struct {
	Steps, Widenings, Configs, Tops, Matches, Finals int
}

func (o *outcome) work() work {
	if o.Res == nil {
		return work{}
	}
	r := o.Res
	return work{r.Steps, r.Widenings, r.Configs, len(r.Tops), len(r.Matches), len(r.Finals)}
}

// layerCounts are the counters the traced path reads around core.Analyze.
type layerCounts struct {
	AllocBytes, Allocs     uint64
	Calls, Proved          int
	MemoHits, MemoMisses   int
	HSMSearches, HSMNs     int64
	ClosureNs, MaintainNs  int64
	IncrClosures, Joins    int64
	CoW                    int64
	ArenaHits, ArenaMisses int64
	Diags                  int
}

func (l *layerCounts) add(o *layerCounts) {
	l.AllocBytes += o.AllocBytes
	l.Allocs += o.Allocs
	l.Calls += o.Calls
	l.Proved += o.Proved
	l.MemoHits += o.MemoHits
	l.MemoMisses += o.MemoMisses
	l.HSMSearches += o.HSMSearches
	l.HSMNs += o.HSMNs
	l.ClosureNs += o.ClosureNs
	l.MaintainNs += o.MaintainNs
	l.IncrClosures += o.IncrClosures
	l.Joins += o.Joins
	l.CoW += o.CoW
	l.ArenaHits += o.ArenaHits
	l.ArenaMisses += o.ArenaMisses
	l.Diags += o.Diags
}

// analyze runs one program through the public pipeline: parse → sem →
// cfg → invariants + cartesian client → core.Analyze with default options
// → topology, plus the six lint passes when withLint. tr == nil is the
// untraced path; a tracer adds spans, the timed matcher, cg.Stats and
// MemStats deltas. A panic anywhere is reported as the outcome's error.
func analyze(p *program, withLint bool, tr *tracer) (o outcome) {
	tr.nextReq()
	root := tr.begin("analysis", -1)
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			o.Err = fmt.Errorf("panic: %v", r)
		}
		o.Dur = time.Since(start)
		tr.end(root)
	}()

	s := tr.begin("parse", root)
	prog, err := parser.Parse(p.Name+".mpl", p.Src)
	tr.end(s)
	if err != nil {
		o.Err = fmt.Errorf("parse: %w", err)
		return o
	}
	s = tr.begin("sem", root)
	_, err = sem.Check(prog)
	tr.end(s)
	if err != nil {
		o.Err = fmt.Errorf("sem: %w", err)
		return o
	}
	s = tr.begin("cfg", root)
	o.G = cfg.Build(prog)
	tr.end(s)
	s = tr.begin("invariants", root)
	m := cartesian.New(core.ScanInvariants(o.G))
	tr.end(s)

	opts := core.Options{Matcher: m, RecordCommBounds: withLint}
	var tm *timedMatcher
	var stats *cg.Stats
	var before runtime.MemStats
	if tr != nil {
		stats = &cg.Stats{}
		opts.CGOpts.Stats = stats
		tm = &timedMatcher{inner: m, tr: tr}
		opts.Matcher = tm
		runtime.ReadMemStats(&before)
	}
	s = tr.begin("core.Analyze", root)
	if tm != nil {
		tm.parent = s
	}
	o.Res, err = core.Analyze(o.G, opts)
	tr.end(s)
	if tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		o.Layers = &layerCounts{
			AllocBytes: after.TotalAlloc - before.TotalAlloc,
			Allocs:     after.Mallocs - before.Mallocs,
			Calls:      tm.calls, Proved: tm.proved,
			MemoHits: m.Memo().HitCount(), MemoMisses: m.Memo().MissCount(),
			HSMSearches: m.ProverSearches(), HSMNs: m.ProverSearchNs(),
			ClosureNs: int64(stats.ClosureTime()), MaintainNs: int64(stats.MaintainTime()),
			IncrClosures: stats.IncrClosures(), Joins: stats.Joins(),
			CoW:       stats.CoWMaterializations(),
			ArenaHits: stats.ArenaHits(), ArenaMisses: stats.ArenaMisses(),
		}
	}
	if err != nil {
		o.Err = fmt.Errorf("analysis: %w", err)
		return o
	}

	s = tr.begin("topology", root)
	o.Topo = topology.Build(o.G, o.Res)
	tr.end(s)
	if withLint {
		s = tr.begin("lint", root)
		o.Lint = lint.Run(&lint.Target{Path: p.Name + ".mpl", Prog: prog, File: prog.File, G: o.G, Res: o.Res}, lint.Options{})
		tr.end(s)
		if o.Layers != nil {
			o.Layers.Diags = len(o.Lint.Diags)
		}
	}
	return o
}
