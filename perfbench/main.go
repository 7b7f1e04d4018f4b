// Command perfbench is the repository's benchmark. It feeds MPL programs
// through psdf's public pipeline, one analysis at a time in a closed loop
// on one goroutine (parse → sem → cfg → invariants + cartesian client →
// core.Analyze with default options → topology, plus the lint passes on
// the lint workload), and checks every verdict against a known answer
// outside the timed spans.
//
//	bash perfbench/run.sh --workload paper|fuzz|lint --seed N --seconds S --trace 0|1
//
// Workloads: paper is the eight curated Section VIII programs; fuzz is a
// pool of safe internal/gen programs (the `psdf fuzz` population); lint
// is a pool of gen programs with one injected defect each. The pools are
// drawn from --pool-seed; --seed orders every sweep.
//
// End-to-end metrics (--trace 0): analyze_ms_geomean is the geometric
// mean over programs of each program's median pipeline time; sweep_s is
// the median over sweeps of one pass's pipeline times added up (the
// collection that starts each analysis on an empty heap is left out);
// exact_frac is the share of programs whose verdict equals the known
// answer; peak_rss_mb is the process's peak resident set; setup_s is the
// median of the set-ups (pool generation plus a warm-up over the first
// programs) spread over the run.
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries per-layer metrics from a traced run (spans and
// counters recorded here, around the calls into each layer), preceded by
// one row per program, and the last traced sweep's spans go to a JSONL
// file under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// setupReps set-ups are spread evenly over the run, so host
	// interference, which comes in phases, reaches their median no more
	// than it reaches the sweeps.
	setupReps   = 9
	warmupProgs = 8 // programs analyzed once by each set-up
	minSweeps   = 3 // timed sweeps per run, however long they take
)

type config struct {
	workload string
	seed     int64
	poolSeed int64
	seconds  time.Duration
	trace    bool
	commit   string
	out      string
}

func main() {
	var c config
	var seconds, trace int
	flag.StringVar(&c.workload, "workload", "", "workload: paper, fuzz or lint")
	flag.Int64Var(&c.seed, "seed", 1, "seed that orders every sweep")
	flag.Int64Var(&c.poolSeed, "pool-seed", 1, "generator base seed of the fuzz and lint pools")
	flag.IntVar(&seconds, "seconds", 10, "seconds of timed sweeps")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&c.commit, "commit", "none", "commit being measured (fingerprint only)")
	flag.StringVar(&c.out, "out", ".bench_build/perfbench", "directory for span dumps and run records")
	flag.Parse()
	c.seconds = time.Duration(seconds) * time.Second
	c.trace = trace == 1
	if flag.NArg() > 0 || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload paper|fuzz|lint --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(c config) error {
	withLint := c.workload == "lint"

	setUp := func() ([]*program, time.Duration, error) {
		t0 := time.Now()
		progs, err := buildWorkload(c.workload, c.poolSeed)
		if err != nil {
			return nil, 0, err
		}
		for _, p := range progs[:min(warmupProgs, len(progs))] {
			analyze(p, withLint, nil)
		}
		return progs, time.Since(t0), nil
	}
	progs, d, err := setUp()
	if err != nil {
		return err
	}
	setups := []time.Duration{d}

	var problems []string
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	n := len(progs)
	sw := &sweeper{progs: progs, withLint: withLint, rng: rand.New(rand.NewSource(c.seed)),
		fail: fail, ref: make([]work, n), sigs: make([]string, n)}

	// Timed sweeps. The traced run alternates untraced and traced sweeps,
	// so drift on the host hits both alike.
	plain, traced := newSweepSet(n), newSweepSet(n)
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	start := time.Now()
	for len(plain.passes) < minSweeps || time.Since(start) < c.seconds {
		if len(setups) < setupReps && time.Since(start) >= time.Duration(len(setups))*c.seconds/setupReps {
			if _, d, err = setUp(); err != nil {
				return err
			}
			setups = append(setups, d)
		}
		sw.once(plain, nil)
		if c.trace {
			sw.once(traced, tr)
		}
	}

	// Correctness gate, outside every timed span: one more pass, judged
	// program by program against the known answers.
	verdicts := make([]verdict, n)
	counts := map[verdict]int{}
	var oracleTime time.Duration
	for i, p := range progs {
		o := analyze(p, withLint, nil)
		sw.check(i, &o)
		t0 := time.Now()
		v, why := judge(p, &o, withLint)
		oracleTime += time.Since(t0)
		verdicts[i] = v
		counts[v]++
		if v == failed {
			fail("%s: %s", p.Name, why)
		}
	}
	if c.workload == "fuzz" {
		if err := crossCheckDiffer(progs, verdicts); err != nil {
			fail("%v", err)
		}
	}

	src, err := sourceHash(".")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return err
	}
	recPath := filepath.Join(c.out, fmt.Sprintf("record-%s-pool%d.json", c.workload, c.poolSeed))
	if err := checkAcrossRuns(recPath, record{Source: src, Work: sw.ref, Verdicts: verdicts}); err != nil {
		fail("determinism: %v", err)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", p)
	}

	medians := make([]float64, n)
	for i, s := range plain.samples {
		medians[i] = ms(median(s))
	}
	fp := map[string]any{
		"workload": c.workload, "seed": c.seed, "pool_seed": c.poolSeed,
		"commit": c.commit, "source": src, "go": runtime.Version(),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"programs": n, "exact": counts[exact], "imprecise": counts[imprecise],
		"skipped": counts[skipped], "failed": counts[failed],
		"failed_frac": float64(counts[failed]) / float64(n),
	}
	res := result{Correct: len(problems) == 0, Attempted: n, Failed: counts[failed]}
	if !c.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		res.Metrics = map[string]metric{
			"analyze_ms_geomean": {geomean(medians), "ms"},
			"sweep_s":            {median(plain.passes).Seconds(), "s"},
			"exact_frac":         {float64(counts[exact]) / float64(n), "ratio"},
			"peak_rss_mb":        {rss, "MB"},
			"setup_s":            {median(setups).Seconds(), "s"},
		}
		fp["samples"] = map[string]int{
			"analyze_ms_geomean": n * len(plain.passes), "sweep_s": len(plain.passes),
			"exact_frac": n, "peak_rss_mb": 1, "setup_s": len(setups),
		}
	} else {
		res.Metrics = layerMetrics(sw.ref, plain, traced, oracleTime)
		fp["samples"] = map[string]int{"traced_sweeps": len(traced.passes), "untraced_sweeps": len(plain.passes)}
		if err := tr.write(filepath.Join(c.out, fmt.Sprintf("trace-%s-seed%d.jsonl", c.workload, c.seed))); err != nil {
			return err
		}
		for i, p := range progs {
			printJSON(map[string]any{"row": programRow(p, verdicts[i], sw.ref[i], medians[i], traced.samples[i], traced.last[i])})
		}
	}
	printJSON(map[string]any{"fingerprint": fp})
	printJSON(res)
	return nil
}

// sweepSet is what one kind of sweep (untraced or traced) measured.
type sweepSet struct {
	passes  []time.Duration   // per sweep: its programs' pipeline times added up
	samples [][]time.Duration // per program: one pipeline time per sweep
	layers  []map[string]time.Duration
	last    []*layerCounts // traced: per program, from the latest sweep
	gc, cpu float64        // runtime GC and total CPU seconds over the sweeps
}

func newSweepSet(n int) *sweepSet {
	return &sweepSet{samples: make([][]time.Duration, n), last: make([]*layerCounts, n)}
}

// sweeper runs sweeps over the pool and holds every pass to the first
// one's work and result.
type sweeper struct {
	progs    []*program
	withLint bool
	rng      *rand.Rand
	fail     func(string, ...any)
	ref      []work
	sigs     []string
}

// once analyzes every program once, in a seeded order. Outcomes are
// dropped as soon as they are checked, so every sweep runs on the same
// small live heap.
func (w *sweeper) once(set *sweepSet, tr *tracer) {
	g0 := gcCPU()
	tr.reset()
	var pass time.Duration
	for _, i := range w.rng.Perm(len(w.progs)) {
		// Start every analysis on a collected heap, as a one-file psdf run
		// does, so no program pays for the garbage of the one before it.
		runtime.GC()
		o := analyze(w.progs[i], w.withLint, tr)
		pass += o.Dur
		set.samples[i] = append(set.samples[i], o.Dur)
		set.last[i] = o.Layers
		w.check(i, &o)
	}
	set.passes = append(set.passes, pass)
	if tr != nil {
		layers := tr.layerTimes()
		for _, l := range set.last {
			layers["hsm"] += time.Duration(l.HSMNs)
			layers["cg.closure"] += time.Duration(l.ClosureNs)
			layers["cg.maintain"] += time.Duration(l.MaintainNs)
		}
		set.layers = append(set.layers, layers)
	}
	g1 := gcCPU()
	set.gc += g1[0] - g0[0]
	set.cpu += g1[1] - g0[1]
}

// check fails the run when program i's work or result differs from its
// first pass.
func (w *sweeper) check(i int, o *outcome) {
	wk, sig := o.work(), signature(o)
	if w.sigs[i] == "" {
		w.ref[i], w.sigs[i] = wk, sig
	} else if wk != w.ref[i] || sig != w.sigs[i] {
		w.fail("%s: a pass differs from the first (work %+v, was %+v)", w.progs[i].Name, wk, w.ref[i])
	}
}

// layerMetrics turns the traced sweeps into the per-layer metrics: times
// are per-sweep totals (median over the traced sweeps), counts are
// per-sweep totals (the same in every sweep).
func layerMetrics(ref []work, plain, traced *sweepSet, oracle time.Duration) map[string]metric {
	layerMS := func(names ...string) metric {
		per := make([]time.Duration, len(traced.layers))
		for i, l := range traced.layers {
			for _, name := range names {
				per[i] += l[name]
			}
		}
		return metric{ms(median(per)), "ms"}
	}
	var w work
	tops := 0
	for _, pw := range ref {
		w.Steps += pw.Steps
		w.Widenings += pw.Widenings
		w.Configs += pw.Configs
		if pw.Tops > 0 {
			tops++
		}
	}
	var lc layerCounts
	for _, l := range traced.last {
		lc.add(l)
	}
	count := func(v float64) metric { return metric{v, "count"} }
	ratio := func(a, b float64) metric { return metric{a / math.Max(b, 1), "ratio"} }
	return map[string]metric{
		"frontend.ms":             layerMS("parse", "sem", "cfg", "invariants"),
		"core.self_ms":            layerMS("core.self"),
		"core.steps":              count(float64(w.Steps)),
		"core.widenings":          count(float64(w.Widenings)),
		"core.configs":            count(float64(w.Configs)),
		"core.top_programs":       count(float64(tops)),
		"core.alloc_mb":           {float64(lc.AllocBytes) / (1 << 20), "MB"},
		"core.allocs":             count(float64(lc.Allocs)),
		"runtime.gc_cpu_frac":     {plain.gc / math.Max(plain.cpu, 1e-9), "ratio"},
		"cartesian.calls":         count(float64(lc.Calls)),
		"cartesian.ms":            layerMS("cartesian.Match", "cartesian.SelfMatch"),
		"cartesian.match_frac":    ratio(float64(lc.Proved), float64(lc.Calls)),
		"cartesian.memo_hit_frac": ratio(float64(lc.MemoHits), float64(lc.MemoHits+lc.MemoMisses)),
		"hsm.searches":            count(float64(lc.HSMSearches)),
		"hsm.ms":                  layerMS("hsm"),
		"cg.closure_ms":           layerMS("cg.closure"),
		"cg.maintain_ms":          layerMS("cg.maintain"),
		"cg.incr_closures":        count(float64(lc.IncrClosures)),
		"cg.joins":                count(float64(lc.Joins)),
		"cg.cow_materializations": count(float64(lc.CoW)),
		"cg.arena_hit_frac":       ratio(float64(lc.ArenaHits), float64(lc.ArenaHits+lc.ArenaMisses)),
		"topology.ms":             layerMS("topology"),
		"lint.ms":                 layerMS("lint"),
		"lint.diags":              count(float64(lc.Diags)),
		"oracle.ms":               {ms(oracle), "ms"},
		"trace.overhead_frac":     {float64(median(traced.passes))/float64(median(plain.passes)) - 1, "ratio"},
	}
}

// programRow is one program's line in the traced output.
func programRow(p *program, v verdict, w work, untracedMS float64, traced []time.Duration, l *layerCounts) map[string]any {
	row := map[string]any{
		"index": p.Index, "name": p.Name, "seed": p.Seed, "verdict": v.String(),
		"ms": untracedMS, "traced_ms": ms(median(traced)),
		"steps": w.Steps, "widenings": w.Widenings, "configs": w.Configs,
		"tops": w.Tops, "matches": w.Matches,
	}
	if p.Bug != "" {
		row["bug"] = string(p.Bug)
	}
	if l != nil {
		row["alloc_mb"] = float64(l.AllocBytes) / (1 << 20)
		row["cartesian_calls"] = l.Calls
	}
	return row
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and structs of finite numbers and strings
	}
	fmt.Println(string(data))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

// peakRSSMB reads the process's peak resident set from /proc.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
