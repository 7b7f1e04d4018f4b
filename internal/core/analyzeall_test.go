// External test package: the drivers under test need the client matchers,
// and clients import core, so an internal test would cycle.
package core_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/cg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
	"repro/internal/obs"
)

// suiteJobs builds one AnalyzeAll job per paper workload, each with its own
// matcher and stats record.
func suiteJobs(ws []*bench.Workload) ([]core.Job, []*cg.Stats, []*cartesian.Matcher) {
	jobs := make([]core.Job, len(ws))
	stats := make([]*cg.Stats, len(ws))
	matchers := make([]*cartesian.Matcher, len(ws))
	for i, w := range ws {
		_, g := w.Parse()
		stats[i] = &cg.Stats{}
		matchers[i] = cartesian.New(core.ScanInvariants(g))
		jobs[i] = core.Job{
			Name: w.Name,
			G:    g,
			Opts: core.Options{
				Matcher: matchers[i],
				CGOpts:  cg.Options{Stats: stats[i]},
			},
		}
	}
	return jobs, stats, matchers
}

// program is one input to the job-level equivalence checks: a parse
// function (each analysis gets a fresh CFG) and the options to run it with.
type program struct {
	name  string
	parse func() *cfg.Graph
	opts  core.Options
}

func workloadPrograms(opts core.Options) []program {
	var out []program
	for _, w := range bench.All() {
		w := w
		out = append(out, program{w.Name, func() *cfg.Graph { _, g := w.Parse(); return g }, opts})
	}
	return out
}

// concurrentSignatures runs one AnalyzeAll job per program with
// parallelism jobs in flight and GOMAXPROCS forced to at least 2, so the
// jobs really interleave even on a single-CPU host. Every job shares one
// cg.Stats, obs.Tracer and obs.Registry, the sinks AnalyzeAll documents as
// shareable; they are returned for the caller to inspect.
func concurrentSignatures(t *testing.T, progs []program, parallelism int) ([]string, *cg.Stats, *obs.Tracer, *obs.Registry) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(max(2, prev))
	defer runtime.GOMAXPROCS(prev)
	stats, tr, reg := &cg.Stats{}, obs.NewTracer(), obs.NewRegistry()
	jobs := make([]core.Job, len(progs))
	for i, p := range progs {
		g := p.parse()
		opts := p.opts
		opts.Matcher = cartesian.New(core.ScanInvariants(g))
		opts.CGOpts.Stats = stats
		opts.Tracer = tr
		opts.Metrics = reg
		jobs[i] = core.Job{Name: p.name, G: g, Opts: opts}
	}
	results := core.AnalyzeAll(jobs, parallelism)
	sigs := make([]string, len(progs))
	for i, jr := range results {
		if jr.Err != nil {
			t.Fatalf("%s: %v", jr.Name, jr.Err)
		}
		if jr.Name != progs[i].name {
			t.Fatalf("result %d out of order: %s, want %s", i, jr.Name, progs[i].name)
		}
		sigs[i] = signature(jr.Res)
	}
	return sigs, stats, tr, reg
}

// TestAnalyzeAllMatchesSequential checks the only concurrency the analysis
// has, job-level parallelism, under real interleavings: the paper suite
// runs on a pool of 4 with shared stats, tracer and registry, and every
// job's result must equal a standalone Analyze of the same program.
func TestAnalyzeAllMatchesSequential(t *testing.T) {
	progs := workloadPrograms(core.Options{})
	got, stats, tr, reg := concurrentSignatures(t, progs, 4)
	for i, p := range progs {
		if want := signature(analyzeWith(t, p.parse(), p.opts)); got[i] != want {
			t.Errorf("%s: pooled result differs from standalone:\n got: %s\nwant: %s", p.name, got[i], want)
		}
	}
	if stats.Joins() == 0 {
		t.Error("shared stats saw no joins")
	}
	pids := map[int]bool{}
	for _, ev := range tr.Events() {
		pids[ev.Pid] = true
	}
	if len(pids) != len(progs) {
		t.Errorf("shared tracer saw %d jobs, want %d", len(pids), len(progs))
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for i := range progs {
		if series := fmt.Sprintf("psdf_engine_steps_total{job=\"%d\"}", i+1); !strings.Contains(sb.String(), series) {
			t.Errorf("shared registry missing %s", series)
		}
	}
}

// TestAnalyzeAllSharedStats shares one atomic stats record across all
// concurrent jobs; under -race this exercises the satellite requirement
// that cg.Stats is data-race-safe.
func TestAnalyzeAllSharedStats(t *testing.T) {
	ws := bench.All()
	shared := &cg.Stats{}
	jobs := make([]core.Job, len(ws))
	for i, w := range ws {
		_, g := w.Parse()
		jobs[i] = core.Job{
			Name: w.Name,
			G:    g,
			Opts: core.Options{
				Matcher: cartesian.New(core.ScanInvariants(g)),
				CGOpts:  cg.Options{Stats: shared},
			},
		}
	}
	for _, jr := range core.AnalyzeAll(jobs, 0) {
		if jr.Err != nil {
			t.Fatalf("%s: %v", jr.Name, jr.Err)
		}
	}
	if shared.ClonesAvoided() == 0 || shared.IncrClosures() == 0 {
		t.Fatalf("shared stats empty: clones=%d incr=%d", shared.ClonesAvoided(), shared.IncrClosures())
	}
}

// TestClonesAvoidedOnEveryWorkload is the acceptance criterion: the CoW
// Clone must avoid eager copies on every paper workload.
func TestClonesAvoidedOnEveryWorkload(t *testing.T) {
	ws := bench.All()
	jobs, stats, _ := suiteJobs(ws)
	for i, jr := range core.AnalyzeAll(jobs, 0) {
		if jr.Err != nil {
			t.Fatalf("%s: %v", jr.Name, jr.Err)
		}
		avoided, mat := stats[i].ClonesAvoided(), stats[i].CoWMaterializations()
		if avoided <= 0 {
			t.Errorf("%s: ClonesAvoided = %d, want > 0", ws[i].Name, avoided)
		}
		if mat > avoided {
			t.Errorf("%s: more materializations (%d) than clones (%d)", ws[i].Name, mat, avoided)
		}
	}
}

// TestMatchCacheHits demonstrates a cache-hit rate > 0 for repeated
// send-receive match queries: the transpose workload poses the same HSM
// self-match query on every loop revisit.
func TestMatchCacheHits(t *testing.T) {
	w := bench.TransposeSquare()
	_, g := w.Parse()
	m := cartesian.New(core.ScanInvariants(g))
	if _, err := core.Analyze(g, core.Options{Matcher: m}); err != nil {
		t.Fatal(err)
	}
	// The single analysis already repeats queries across the join/widen
	// revisits of the loop head; re-analyzing with the same matcher must
	// hit for every query of the second run.
	missesAfterFirst := m.Memo().MissCount()
	if _, err := core.Analyze(g, core.Options{Matcher: m}); err != nil {
		t.Fatal(err)
	}
	memo := m.Memo()
	if memo.HitCount() == 0 {
		t.Fatalf("no cache hits: hits=%d misses=%d", memo.HitCount(), memo.MissCount())
	}
	if memo.MissCount() != missesAfterFirst {
		t.Errorf("second identical analysis missed the cache: %d -> %d misses", missesAfterFirst, memo.MissCount())
	}
	if memo.HitRate() <= 0 {
		t.Errorf("HitRate = %v, want > 0", memo.HitRate())
	}
	if p := m.Prover(); p.CacheHits == 0 && memo.HitCount() == 0 {
		t.Error("neither matcher memo nor prover cache hit")
	}
}

// BenchmarkMatchCacheHit measures a memoized whole-set HSM match query
// against the cold-prover baseline path.
func BenchmarkMatchCacheHit(b *testing.B) {
	w := bench.TransposeSquare()
	_, g := w.Parse()
	m := cartesian.New(core.ScanInvariants(g))
	if _, err := core.Analyze(g, core.Options{Matcher: m}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(g, core.Options{Matcher: m}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.Memo().HitRate()*100, "cache-hit-%")
}
