package core_test

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
	"repro/internal/obs"
)

// TestTracingDoesNotPerturb is the observability overhead contract: with a
// retaining tracer and a metrics registry attached, the engine must produce
// byte-identical results to the untraced baseline on every paper workload.
// Tracing only observes.
func TestTracingDoesNotPerturb(t *testing.T) {
	for _, w := range bench.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			_, g := w.Parse()
			want := signature(analyzeWith(t, g, core.Options{}))
			tr := obs.NewTracer()
			reg := obs.NewRegistry()
			_, g = w.Parse()
			res, err := core.Analyze(g, core.Options{
				Matcher: cartesian.New(core.ScanInvariants(g)),
				Tracer:  tr,
				Metrics: reg,
				CGOpts:  cg.Options{Stats: &cg.Stats{}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := signature(res); got != want {
				t.Errorf("traced run diverged:\n got: %s\nwant: %s", got, want)
			}
			if tr.EventCount() == 0 {
				t.Error("tracer retained no events")
			}
			evs := tr.Events()
			if probs := obs.Check(evs, 0); len(probs) != 0 {
				t.Errorf("malformed trace: %v", probs)
			}
			totals := tr.Totals()
			if totals[obs.PhaseStep.String()].Count == 0 {
				t.Error("no step spans recorded")
			}
			if totals[obs.PhaseFinish.String()].Count != 1 {
				t.Errorf("finish spans = %d, want 1", totals[obs.PhaseFinish.String()].Count)
			}
		})
	}
}

// TestMetricsPublished checks the engine's post-run metrics snapshot: the
// registry renders the step counter, config gauge, worklist high-water mark
// and the cg instrumentation series.
func TestMetricsPublished(t *testing.T) {
	_, g := bench.Stencil1D().Parse()
	reg := obs.NewRegistry()
	res := analyzeWith(t, g, core.Options{
		Metrics: reg,
		CGOpts:  cg.Options{Stats: &cg.Stats{}},
	})
	if !res.Clean() {
		t.Fatalf("not clean: %v", res.TopReasons())
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// A direct Analyze runs as job 0.
	for _, want := range []string{
		`psdf_engine_steps_total{job="0"}`,
		`psdf_engine_configs{job="0"}`,
		`psdf_interned_keys{job="0"}`,
		`psdf_sched_queue_depth_max{job="0"}`,
		`psdf_cg_joins_total{job="0"}`,
		`psdf_match_memo_total{job="0",result="hit"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %s", want)
		}
	}
}

// TestAnalyzeAllPhaseBreakdown checks the pool driver's per-job results:
// wall time from the analyze span, a per-job phase breakdown even without a
// caller-supplied tracer, and pid assignment by input position.
func TestAnalyzeAllPhaseBreakdown(t *testing.T) {
	ws := []*bench.Workload{bench.Fig2Exchange(), bench.Fig7Shift()}
	jobs := make([]core.Job, len(ws))
	for i, w := range ws {
		_, g := w.Parse()
		jobs[i] = core.Job{Name: w.Name, G: g, Opts: core.Options{
			Matcher: cartesian.New(core.ScanInvariants(g)),
		}}
	}
	for _, parallelism := range []int{1, 2} {
		keyed := false
		for i, jr := range core.AnalyzeAll(jobs, parallelism) {
			if jr.Err != nil {
				t.Fatalf("parallelism=%d %s: %v", parallelism, jr.Name, jr.Err)
			}
			if jr.Wall <= 0 {
				t.Errorf("parallelism=%d %s: Wall = %v", parallelism, jr.Name, jr.Wall)
			}
			an := jr.Phases[obs.PhaseAnalyze.String()]
			if an.Count != 1 || an.Total <= 0 {
				t.Errorf("parallelism=%d %s: analyze phase = %+v", parallelism, jr.Name, an)
			}
			if jr.Phases[obs.PhaseStep.String()].Count == 0 {
				t.Errorf("parallelism=%d %s: no step phase in breakdown", parallelism, jr.Name)
			}
			// Every insert canonicalizes; identity keys are built on
			// revisits, which the looping shift program makes.
			if jr.Phases[obs.PhaseCanonicalize.String()].Count == 0 {
				t.Errorf("parallelism=%d %s: no canonicalize phase in breakdown", parallelism, jr.Name)
			}
			keyed = keyed || jr.Phases[obs.PhaseKey.String()].Count > 0
			_ = i
		}
		if !keyed {
			t.Errorf("parallelism=%d: no key phase in any breakdown", parallelism)
		}
	}
	// A shared retaining tracer distinguishes jobs by pid, and each job's
	// breakdown is its own share of the tracer, not the tracer's totals.
	tr := obs.NewTracer()
	for i := range jobs {
		_, g := ws[i].Parse()
		jobs[i].G = g
		jobs[i].Opts.Matcher = cartesian.New(core.ScanInvariants(g))
		jobs[i].Opts.Tracer = tr
	}
	for _, jr := range core.AnalyzeAll(jobs, 2) {
		if jr.Err != nil {
			t.Fatal(jr.Err)
		}
		if an := jr.Phases[obs.PhaseAnalyze.String()]; an.Count != 1 {
			t.Errorf("shared tracer %s: analyze phase = %+v, want count 1", jr.Name, an)
		}
		if jr.Phases[obs.PhaseStep.String()].Count == 0 {
			t.Errorf("shared tracer %s: no step phase in breakdown", jr.Name)
		}
	}
	pids := map[int]bool{}
	for _, ev := range tr.Events() {
		pids[ev.Pid] = true
	}
	if !pids[1] || !pids[2] {
		t.Errorf("shared tracer pids = %v, want jobs 1 and 2", pids)
	}
	// A shared aggregate-only tracer keeps no per-job split.
	agg := obs.NewAggregate()
	for i := range jobs {
		_, g := ws[i].Parse()
		jobs[i].G = g
		jobs[i].Opts.Matcher = cartesian.New(core.ScanInvariants(g))
		jobs[i].Opts.Tracer = agg
	}
	for _, jr := range core.AnalyzeAll(jobs, 2) {
		if jr.Err != nil || jr.Phases != nil {
			t.Errorf("shared aggregate %s: err=%v phases=%v, want no breakdown", jr.Name, jr.Err, jr.Phases)
		}
	}
	if agg.Totals()[obs.PhaseAnalyze.String()].Count != int64(len(jobs)) {
		t.Errorf("shared aggregate totals = %v, want %d analyze spans", agg.Totals(), len(jobs))
	}
}
