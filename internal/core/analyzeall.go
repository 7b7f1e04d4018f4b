package core

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/cfg"
	"repro/internal/obs"
)

// The paper's evaluation analyzes a suite of independent workloads; nothing
// couples their fixpoint computations, so the suite is embarrassingly
// parallel one-workload-per-core. AnalyzeAll is the shared bounded-pool
// driver behind every cmd/psdf analysis (the bare command and psdf
// profile) and internal/experiments.
//
// Per-job state must not be shared across jobs unless it is race-safe:
// cg.Stats is (atomic counters, so one Stats may aggregate a whole suite),
// but Matchers keep plain instrumentation counters and memo tables, so each
// Job needs its own Matcher instance. The obs types are race-safe, so one
// Tracer, Registry, ProgressTracker or FlightRecorder may be shared across
// jobs: AnalyzeAll owns job identity, running job i as job id i+1 labelled
// with its Name, which keeps their spans, series and events apart.

// Job is one unit of work for AnalyzeAll: a CFG plus the analysis options
// to run it with.
type Job struct {
	// Name labels the workload in results (not interpreted).
	Name string
	// G is the program's control-flow graph.
	G *cfg.Graph
	// Opts configures the analysis. Opts.Matcher must not be shared with
	// another concurrently running Job.
	Opts Options
}

// JobResult is the outcome of one Job, in the same position as its input.
type JobResult struct {
	Name string
	Res  *Result
	Err  error
	// Wall is the job's wall-clock analysis time (the analyze span).
	Wall time.Duration
	// Phases is the per-phase time/count breakdown of this job's run. With
	// no Opts.Tracer AnalyzeAll installs a private aggregate tracer per
	// job; with a shared retaining tracer it splits the retained events by
	// job id. A shared aggregate-only tracer keeps no per-job split, so
	// Phases is nil then.
	Phases obs.PhaseTotals
}

// AnalyzeAll runs every job through Analyze on a bounded worker pool and
// returns the results in input order. parallelism <= 0 selects
// runtime.NumCPU(); parallelism == 1 degenerates to a sequential loop with
// identical results.
//
// Job i runs as job id i+1 (its trace pid, metric label and progress key),
// so spans and series from different jobs stay distinguishable in a shared
// tracer or registry.
func AnalyzeAll(jobs []Job, parallelism int) []JobResult {
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	if parallelism > len(jobs) {
		parallelism = len(jobs)
	}
	results := make([]JobResult, len(jobs))
	run := func(i int) {
		j := jobs[i]
		opts := j.Opts
		job := i + 1
		private := opts.Tracer == nil
		if private {
			// Aggregate-only tracer: phase totals for the result breakdown
			// at near-zero cost, no event retention.
			opts.Tracer = obs.NewAggregate()
		}
		sp := opts.Tracer.Begin(job, 0, obs.PhaseAnalyze, j.Name)
		res, err := analyzeJob(j.G, opts, job, j.Name)
		wall := sp.End()
		if err != nil && opts.Log != nil {
			opts.Log.Error("analysis failed", "job", job, "name", j.Name, "err", err)
		}
		results[i] = JobResult{Name: j.Name, Res: res, Err: err, Wall: wall}
		if private {
			results[i].Phases = opts.Tracer.Totals()
		}
	}
	if parallelism <= 1 {
		for i := range jobs {
			run(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(parallelism)
		for w := 0; w < parallelism; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					run(i)
				}
			}()
		}
		for i := range jobs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	// Jobs on a caller's retaining tracer get their breakdown from its
	// events, split by job id once per tracer.
	split := map[*obs.Tracer]map[int]obs.PhaseTotals{}
	for i := range jobs {
		tr := jobs[i].Opts.Tracer
		if !tr.Retaining() {
			continue
		}
		if split[tr] == nil {
			split[tr] = obs.TotalsByPid(tr.Events())
		}
		results[i].Phases = split[tr][i+1]
	}
	return results
}
