package core

// One observation path (DESIGN.md §14): the engine emits each event once,
// into its analysis's observer, and the observer fans the event out to the
// span tracer, the profiler lane, the flight recorder, the structured
// logger, the progress tracker, the metrics registry and the stall
// watchdog. newObserver returns nil when every consumer is off and every
// event method accepts a nil receiver, so a disabled event costs one
// pointer check and builds no key or detail string. Each consumer field is
// nil-guarded as well, so the zero observer is inert too.

import (
	"context"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cfg"
	"repro/internal/obs"
	"repro/internal/prof"
)

// observer is one analysis's observation state: its job identity, the
// consumers, the matcher capabilities asserted once at construction, and
// the give-up counter the samplers read.
type observer struct {
	// Options supplies the consumers: Tracer, Metrics, Log, Progress,
	// FlightRecorder, StallTimeout (with StallDump and ForceStall),
	// ProfileLabels and Profiler. Each is nil-guarded or off at its zero
	// value; no other field is read here.
	Options
	job  int    // trace pid, metric label and progress key
	name string // workload label (may be empty)

	lane   *prof.Lanes
	memo   *MatchMemo
	prover proverLane

	// giveUps counts ⊤ table entries; atomic because samplers read it.
	giveUps  atomic.Int64
	started  time.Time
	wd       *obs.Watchdog
	dumpOnce sync.Once
}

// proverLane is the optional matcher capability for an HSM prover: its
// cumulative search counters (safe to read mid-run) and the hand-off of
// this analysis's tracer, job id and pprof-label setting. Discovered by
// interface assertion, so core needs no hsm dependency.
type proverLane interface {
	ProverSearches() int64
	ProverSearchNs() int64
	SetObs(tr *obs.Tracer, job int, profileLabels bool)
}

// newObserver asserts the matcher's capabilities, hands the prover its
// tracer, job and label setting (always, so a reused matcher never keeps a
// previous run's tracer), and builds the observer for the consumers opts
// selects — nil when there are none.
func newObserver(g *cfg.Graph, opts *Options, job int, name string) *observer {
	var memo *MatchMemo
	if mp, ok := opts.Matcher.(interface{ Memo() *MatchMemo }); ok {
		memo = mp.Memo()
	}
	prover, _ := opts.Matcher.(proverLane)
	if prover != nil {
		prover.SetObs(opts.Tracer, job, opts.ProfileLabels)
	}
	if opts.Tracer == nil && opts.Metrics == nil && opts.Log == nil && opts.Progress == nil &&
		opts.FlightRecorder == nil && opts.StallTimeout <= 0 && !opts.ProfileLabels && opts.Profiler == nil {
		return nil
	}
	o := &observer{Options: *opts, job: job, name: name, lane: opts.Profiler.NewLanes(len(g.Nodes)),
		memo: memo, prover: prover, started: time.Now()}
	if o.Metrics != nil && memo != nil {
		// Function-backed, so a mid-run scrape reads live values.
		label := strconv.Itoa(job)
		o.Metrics.CounterFuncVec("psdf_match_memo_total", "match memo lookups",
			obs.Labels("job", label, "result", "hit"), func() float64 { return float64(memo.HitCount()) })
		o.Metrics.CounterFuncVec("psdf_match_memo_total", "match memo lookups",
			obs.Labels("job", label, "result", "miss"), func() float64 { return float64(memo.MissCount()) })
		o.Metrics.GaugeFuncVec("psdf_match_memo_entries", "match memo resident entries",
			obs.Labels("job", label), func() float64 { return float64(memo.Len()) })
	}
	return o
}

// label names the analysis in logs and pprof labels.
func (o *observer) label() string {
	if o.name != "" {
		return o.name
	}
	return "job-" + strconv.Itoa(o.job)
}

// span opens a phase span on this analysis's engine lane (tid 0).
func (o *observer) span(ph obs.Phase, key string) obs.Span {
	if o == nil {
		return obs.Span{}
	}
	return o.Tracer.Begin(o.job, 0, ph, key)
}

// step reports that the fixpoint steps the configuration at key; the
// returned span covers the step.
func (o *observer) step(key string) obs.Span {
	if o == nil {
		return obs.Span{}
	}
	o.FlightRecorder.Record("step", o.job, key, "")
	return o.Tracer.Begin(o.job, 0, obs.PhaseStep, key)
}

// probe is one in-flight transfer or matcher call. A stack value: the
// disabled path allocates nothing.
type probe struct {
	sp       obs.Span
	t0       time.Time
	misses   int
	searches int64
	proverNs int64
}

// transfer opens one transfer-function step of the configuration at key;
// stepped closes it.
func (o *observer) transfer(key string) probe {
	if o == nil {
		return probe{}
	}
	p := probe{sp: o.Tracer.Begin(o.job, 0, obs.PhaseTransfer, key)}
	if o.lane != nil {
		p.t0 = time.Now()
	}
	return p
}

// blockedStep opens the step of a configuration whose sets are all blocked
// or at exit. It is profiled like a transfer but has no span of its own:
// its match and split phases carry theirs.
func (o *observer) blockedStep() probe {
	if o == nil || o.lane == nil {
		return probe{}
	}
	return probe{t0: time.Now()}
}

// stepped closes a transfer or blocked step attributed to node that
// spawned the given number of successors.
func (o *observer) stepped(p probe, node, spawned int) {
	if o == nil {
		return
	}
	p.sp.End()
	if o.lane != nil {
		o.lane.Step(node, time.Since(p.t0).Nanoseconds(), spawned)
	}
}

// matchBegin opens one Matcher call, capturing the matcher's cumulative
// memo-miss and prover counters so matchEnd can attribute the deltas.
func (o *observer) matchBegin() probe {
	if o == nil || o.lane == nil {
		return probe{}
	}
	var p probe
	if o.memo != nil {
		p.misses = o.memo.MissCount()
	}
	if o.prover != nil {
		p.searches, p.proverNs = o.prover.ProverSearches(), o.prover.ProverSearchNs()
	}
	p.t0 = time.Now()
	return p
}

// matchEnd closes a Matcher call attributed to node.
func (o *observer) matchEnd(p probe, node int, matched bool) {
	if o == nil || o.lane == nil {
		return
	}
	ns := time.Since(p.t0).Nanoseconds()
	var misses, searches, proverNs int64
	if o.memo != nil {
		misses = int64(o.memo.MissCount() - p.misses)
	}
	if o.prover != nil {
		searches, proverNs = o.prover.ProverSearches()-p.searches, o.prover.ProverSearchNs()-p.proverNs
	}
	o.lane.Match(node, ns, misses, searches, proverNs, matched)
}

// pendingMatch reports a receive satisfied from the pending send at node:
// a match that needs no Matcher call, so it carries zero probe deltas.
func (o *observer) pendingMatch(node int) {
	if o == nil {
		return
	}
	o.lane.Match(node, 0, 0, 0, 0, true)
}

// combine reports that the entry at key, at revision rev, is combined with
// an incoming state — a join below the widening rung, a widening at or
// above it — blamed on node. The returned span covers the combine.
func (o *observer) combine(key string, node int, widen bool, rev int) obs.Span {
	if o == nil {
		return obs.Span{}
	}
	ph := obs.PhaseJoin
	if widen {
		ph = obs.PhaseWiden
	}
	o.lane.Combine(node, widen)
	if o.FlightRecorder != nil {
		o.FlightRecorder.Record("combine", o.job, key, ph.String()+" rev="+strconv.Itoa(rev))
	}
	return o.Tracer.Begin(o.job, 0, ph, key)
}

// widenFail reports that combining old with nw at key found no common
// bound, blamed on node: the first failing bound pair, or the first
// failure detail when no range bound failed. Rendered only when observed.
func (o *observer) widenFail(key string, node int, old, nw *State, detail []string) {
	if o == nil || (o.lane == nil && o.FlightRecorder == nil) {
		return
	}
	var a, b string
	if pa, pb, ok := firstFailingBound(old, nw); ok {
		a, b = pa.String(), pb.String()
	} else if len(detail) > 0 {
		b = detail[0]
	}
	o.lane.WidenFail(node, a, b)
	if o.FlightRecorder != nil {
		o.FlightRecorder.Record("combine", o.job, key, "widening failed: "+strings.TrimPrefix(a+" vs "+b, " vs "))
	}
}

// topCause is the profiler's ⊤ taxonomy.
type topCause uint8

const (
	// topStuck: no step possible, or a revision chain that did not
	// converge (profiled as give_ups).
	topStuck topCause = iota
	// topWiden: a failed widening, already profiled by widenFail as
	// widen_failures.
	topWiden
	// topDemoted: a final demoted for a stale match witness (profiled as
	// top_demotions).
	topDemoted
)

// giveUp reports that the table entry at key became ⊤ with reason why,
// blamed on node. The engine emits it wherever an entry becomes ⊤, so the
// give-up counter equals the number of ⊤ table entries.
func (o *observer) giveUp(cause topCause, node int, key, why string) {
	if o == nil {
		return
	}
	o.giveUps.Add(1)
	switch cause {
	case topStuck:
		o.lane.GiveUp(node)
	case topDemoted:
		o.lane.TopDemotion(node)
	}
	o.FlightRecorder.Record("giveup", o.job, key, why)
}

// labeled runs fn under the psdf_job/psdf_phase pprof goroutine labels
// when Options.ProfileLabels is set; otherwise it calls fn directly.
func (o *observer) labeled(phase string, fn func()) {
	if o == nil || !o.ProfileLabels {
		fn()
		return
	}
	labels := pprof.Labels("psdf_job", o.label(), "psdf_phase", phase)
	pprof.Do(context.Background(), labels, func(context.Context) { fn() })
}

// start opens the analysis: the start log line, the live progress sampler
// and the stall watchdog.
func (o *observer) start(e *engine, schedule string) {
	if o == nil {
		return
	}
	if o.Log != nil {
		o.Log.Info("analysis started", "job", o.job, "name", o.label(), "schedule", schedule)
	}
	if o.Progress != nil {
		o.Progress.Register(o.job, func() obs.Progress { return o.sample(e) })
	}
	if o.StallTimeout > 0 {
		// With ForceStall the reading is pinned to 0, so the watchdog must
		// fire: the deterministic smoke path for the stall machinery.
		progress := func() int64 {
			if o.ForceStall {
				return 0
			}
			return e.steps.Load() + e.widenings.Load() + int64(e.in.size())
		}
		o.wd = obs.NewWatchdog(o.StallTimeout, progress, func(rep obs.StallReport) {
			if o.Log != nil {
				o.Log.Error("analysis stalled: no fixpoint progress within deadline",
					"job", o.job, "name", o.label(), "stalled_ms", rep.Stalled.Milliseconds(),
					"steps", e.steps.Load(), "configs", e.in.size(), "widenings", e.widenings.Load())
			}
			o.FlightRecorder.Record("stall", o.job, "", "no progress for "+rep.Stalled.String())
			o.dumpFlight("stall")
		})
		o.wd.Start(0)
	}
}

// done closes the analysis after the finish post-pass. It settles the
// watchdog (a ForceStall run is held open until it fires), reports a
// step-budget abort, publishes the final progress snapshot, commits the
// profiler lane, logs convergence and exports the metrics.
func (o *observer) done(e *engine) {
	if o == nil {
		return
	}
	if o.wd != nil {
		if o.ForceStall {
			<-o.wd.FiredChan()
		}
		o.wd.Stop()
	}
	if e.budgetHit {
		if o.Log != nil {
			o.Log.Error("analysis aborted: step budget exhausted",
				"job", o.job, "name", o.label(), "max_steps", e.opts.maxSteps())
		}
		o.dumpFlight("step-budget")
	}
	if o.Progress != nil {
		// The run is over: the totals are the result's.
		final := o.sample(e)
		final.Steps, final.Configs, final.Widenings = int64(e.res.Steps), int64(e.res.Configs), int64(e.res.Widenings)
		o.Progress.Finish(o.job, final)
	}
	// The lane is quiescent here, so the merge reads it unsynchronized.
	o.Profiler.Commit(e.g, o.lane)
	if o.Log != nil {
		clean := e.res.Clean()
		attrs := []any{"job", o.job, "name", o.label(),
			"elapsed_ms", time.Since(o.started).Milliseconds(),
			"steps", e.res.Steps, "configs", e.res.Configs,
			"widenings", e.res.Widenings, "give_ups", o.giveUps.Load(),
			"matches", len(e.res.Matches), "clean", clean}
		if clean {
			o.Log.Info("analysis converged", attrs...)
		} else {
			o.Log.Warn("analysis converged with give-ups", append(attrs, "top_reasons", e.res.TopReasons())...)
		}
	}
	if o.Metrics != nil {
		o.publish(e)
	}
}

// sample builds a point-in-time progress snapshot. Safe from any
// goroutine: everything it reads is atomic or mutex-protected.
func (o *observer) sample(e *engine) obs.Progress {
	p := obs.Progress{
		Job:       o.job,
		Name:      o.name,
		Steps:     e.steps.Load(),
		Configs:   int64(e.in.size()),
		Widenings: e.widenings.Load(),
		GiveUps:   o.giveUps.Load(),
		ElapsedNs: time.Since(o.started).Nanoseconds(),
	}
	if s := e.stats(); s != nil {
		p.Joins = s.Joins()
	}
	if o.memo != nil {
		p.MemoHits = int64(o.memo.HitCount())
		p.MemoMisses = int64(o.memo.MissCount())
		p.MemoHitRate = o.memo.HitRate()
	}
	if o.prover != nil {
		p.ProverSearches = o.prover.ProverSearches()
		p.ProverNs = o.prover.ProverSearchNs()
	}
	return p
}

// dumpFlight writes the flight recorder to Options.StallDump at most once
// per analysis: the watchdog and the step-budget abort share the once.
func (o *observer) dumpFlight(reason string) {
	o.dumpOnce.Do(func() {
		if o.FlightRecorder == nil || o.StallDump == nil {
			return
		}
		o.FlightRecorder.Record("dump", o.job, "", reason)
		if err := o.FlightRecorder.Dump(o.StallDump); err != nil && o.Log != nil {
			o.Log.Error("flight-recorder dump failed", "job", o.job, "err", err)
		}
	})
}

// publish exports the converged engine's final counters and gauges,
// labelled with the job id so several analyses can share one registry.
func (o *observer) publish(e *engine) {
	reg := o.Metrics
	job := obs.Labels("job", strconv.Itoa(o.job))
	reg.NewCounterVec("psdf_engine_steps_total",
		"propagate steps executed", job).Add(e.steps.Load())
	reg.NewCounterVec("psdf_engine_widenings_total",
		"widening events (table entry replaced by a wider state)", job).Add(e.widenings.Load())
	reg.NewGaugeVec("psdf_engine_configs",
		"distinct pCFG configurations explored", job).Set(float64(e.res.Configs))
	reg.NewGaugeVec("psdf_engine_finals",
		"terminal all-at-exit configurations", job).Set(float64(len(e.res.Finals)))
	reg.NewGaugeVec("psdf_engine_tops",
		"give-up configurations in the result", job).Set(float64(len(e.res.Tops)))
	reg.NewGaugeVec("psdf_engine_matches",
		"distinct send-receive matches in the topology", job).Set(float64(len(e.res.Matches)))
	reg.NewGaugeVec("psdf_interned_keys",
		"distinct shape keys interned", job).Set(float64(e.in.size()))
	reg.NewGaugeVec("psdf_sched_queue_depth_max",
		"scheduler queue depth high-water mark", job).SetMax(float64(e.depthHW))
	if s := e.stats(); s != nil {
		s.RegisterMetrics(reg, job)
	}
}
