// Command psdf runs the communication-sensitive static dataflow analysis
// on MPL programs: it parses, type-checks, builds the CFG, analyzes the
// pCFG with the chosen client analysis, and reports the communication
// topology plus any verification findings.
//
// Usage:
//
//	psdf [flags] program.mpl [more.mpl ...]
//	psdf sim -np N [-env k=v,k=v] [-rendezvous] [-events] [-fail-on-findings] program.mpl
//	psdf lint [-format text|json|sarif] [-strict-bounds] program.mpl ...
//	psdf trace [-top n] [-check] trace.json ...
//	psdf bench run|record|diff|check|report [flags]
//	psdf fuzz [-seed S] [-n N] [-np 2,3] [-shrink] [-out dir] [-gate class]
//	psdf profile [-format text|json|folded] [-top n] (report.json | program.mpl) ...
//
// The bare command analyzes every program through one bounded job pool
// (core.AnalyzeAll, -parallel) and prints each program's report in input
// order; with several programs each report follows a "==> path <=="
// header. It exits 1 when any program fails to analyze or its analysis is
// incomplete (and, with -fail-on-findings, on verification findings).
//
// The sim subcommand executes one program on the concrete message-passing
// simulator for a fixed process count, reporting the delivered messages,
// print output, leaks and deadlocks — the ground truth the static analysis
// is validated against.
//
// The profile subcommand renders source-attributed analysis profiles:
// per-statement step time, configurations spawned, joins, widenings and
// widening failures (with the failing bound-expression pair), give-ups,
// ⊤ demotions, match-memo misses and HSM prover time, mapped back onto
// the MPL source as a heat listing, JSON report, or folded flamegraph
// stacks. It reads psdf-profile/1 JSON written by `psdf -profile-out`,
// or profiles .mpl programs in place.
//
// The lint subcommand runs the coded diagnostic passes (message leaks,
// deadlocks, tag mismatches, rank bounds, ⊤-blame, dead code) and exits
// nonzero when error-severity findings exist.
//
// The fuzz subcommand is the differential-soundness sweep: it generates
// deterministic random MPL programs, triages each against the
// explicit-state oracle, optionally minimizes divergences with a
// class-preserving delta-debugging shrinker, and exits nonzero when any
// finding reaches the gate class. CI runs `psdf fuzz -seed 1 -n 2000` as
// the acceptance gate: zero soundness or error findings allowed.
//
// The trace subcommand summarizes a span trace written by `psdf -trace`
// into a per-phase / per-configuration cost table, or validates it with
// -check.
//
// The bench subcommand regenerates the paper's evaluation tables (run)
// and maintains the longitudinal regression history
// (BENCH_HISTORY.jsonl): record appends a commit-anchored entry with
// multi-sample timings and per-workload precision fingerprints, diff
// statistically compares two entries (Mann–Whitney over timings, exact
// equality over fingerprints), check is the CI gate (exit nonzero on
// precision changes), and report renders the trajectory as markdown.
//
// Analysis flags:
//
//	-client symbolic|cartesian   client analysis (default cartesian)
//	-backend array|map           constraint-graph storage (default array)
//	-nonblocking                 Section X non-blocking sends
//	-schedule fifo|lifo          worklist order (default fifo)
//	-parallel n                  programs analyzed at once (0 = one per CPU)
//	-dot                         print the topology as Graphviz dot
//	-cfg                         print the CFG as Graphviz dot and exit
//	-pcfg                        print the explored pCFG as Graphviz dot
//	-verify                      run the error-detection pass (default on)
//	-stats                       print analysis statistics and match-memo counters
//	-fail-on-findings            exit nonzero on verification findings
//	-log level                   structured engine logs on stderr (off, debug,
//	                             info, warn, error)
//	-log-format text|json        structured log encoding
//
// Observability flags (analysis results are byte-identical with them on
// or off):
//
//	-trace f.json                Chrome trace-event file (load it at
//	                             https://ui.perfetto.dev or run `psdf trace`);
//	                             also prints each program's phase breakdown
//	-trace-jsonl f.jsonl         the same spans as JSON lines
//	-metrics-out f.prom          metrics registry in Prometheus text after the
//	                             run ("-" for stdout)
//	-http addr                   serve /metrics, /statusz, /statusz/stream,
//	                             /flightz and /debug/pprof during the run
//	-http-linger                 keep serving after the analyses finish
//	                             (POST /quitquitquit to exit)
//	-stall-timeout d             per-analysis no-progress watchdog; firing
//	                             dumps the flight recorder
//	-stall-dump f                flight-recorder dump file (default stderr)
//	-force-stall                 hold each analysis open until its watchdog
//	                             fires (smoke-tests the stall path)
//	-pprof-labels                pprof goroutine labels (job, phase)
//	-profile-out p.json          source-attribution profile of every program
//	                             as psdf-profile/1 JSON (render with
//	                             `psdf profile`)
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cfg"
	"repro/internal/cg"
	"repro/internal/clients/cartesian"
	"repro/internal/clients/symbolic"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/prof"
	"repro/internal/sem"
	"repro/internal/topology"
	"repro/internal/verify"
)

// subcommands maps a first argument to its handler; any other first
// argument belongs to the analyze command.
var subcommands = map[string]func([]string) int{
	"sim":     runSim,
	"lint":    runLint,
	"trace":   runTrace,
	"bench":   runBench,
	"fuzz":    runFuzz,
	"profile": runProfile,
}

func main() {
	if len(os.Args) > 1 {
		if run, ok := subcommands[os.Args[1]]; ok {
			os.Exit(run(os.Args[2:]))
		}
	}
	os.Exit(runAnalyze(os.Args[1:]))
}

// flightBuffer is the flight recorder's ring capacity in events.
const flightBuffer = 4096

// program is one loaded MPL program.
type program struct {
	path string
	src  string
	g    *cfg.Graph
}

// loadPrograms parses, type-checks and builds the CFG of every path: the
// one front end behind analysis, simulation and profiling.
func loadPrograms(paths []string) ([]*program, error) {
	progs := make([]*program, 0, len(paths))
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		prog, err := parser.Parse(path, string(src))
		if err != nil {
			return nil, err
		}
		if _, err := sem.Check(prog); err != nil {
			return nil, err
		}
		progs = append(progs, &program{path: path, src: string(src), g: cfg.Build(prog)})
	}
	return progs, nil
}

// newJobs builds one core.AnalyzeAll job per program on the shared options
// opts. Each job gets its own matcher: matchers keep unsynchronized memo
// tables and counters, so they cannot be shared.
func newJobs(progs []*program, client string, opts core.Options) ([]core.Job, error) {
	jobs := make([]core.Job, len(progs))
	for i, p := range progs {
		o := opts
		switch client {
		case "cartesian":
			o.Matcher = cartesian.New(core.ScanInvariants(p.g))
		case "symbolic":
			o.Matcher = &symbolic.Matcher{}
		default:
			return nil, fmt.Errorf("unknown client %q", client)
		}
		jobs[i] = core.Job{Name: p.path, G: p.g, Opts: o}
	}
	return jobs, nil
}

// analyzeConfig carries the analyze command's flags.
type analyzeConfig struct {
	client, backend, schedule string
	dot, cfgDot, pcfgDot      bool
	verify, stats, nonBlock   bool
	failOnFind                bool
	parallel                  int
	traceOut, traceJSONL      string
	metricsOut, profileOut    string
	httpAddr                  string
	httpLinger                bool
	stallTO                   time.Duration
	stallDump                 string
	forceStall, pprofLabels   bool
	log                       *logFlags
}

func runAnalyze(args []string) int {
	fs := flag.NewFlagSet("psdf", flag.ExitOnError)
	var c analyzeConfig
	fs.StringVar(&c.client, "client", "cartesian", "client analysis: symbolic or cartesian")
	fs.StringVar(&c.backend, "backend", "array", "constraint-graph backend: array or map")
	fs.BoolVar(&c.nonBlock, "nonblocking", false, "non-blocking sends (Section X aggregation extension)")
	fs.StringVar(&c.schedule, "schedule", "", "worklist order: fifo or lifo (default fifo)")
	fs.IntVar(&c.parallel, "parallel", 0, "programs analyzed at once (0 = one per CPU, 1 = sequential)")
	fs.BoolVar(&c.dot, "dot", false, "print the topology as Graphviz dot")
	fs.BoolVar(&c.cfgDot, "cfg", false, "print the CFG as Graphviz dot and exit")
	fs.BoolVar(&c.pcfgDot, "pcfg", false, "print the explored pCFG as Graphviz dot")
	fs.BoolVar(&c.verify, "verify", true, "run the error-detection pass")
	fs.BoolVar(&c.stats, "stats", false, "print analysis statistics and match-memo counters")
	fs.BoolVar(&c.failOnFind, "fail-on-findings", false, "exit nonzero on verification findings")
	fs.StringVar(&c.traceOut, "trace", "", "write a Chrome trace-event `file` (Perfetto-loadable; summarize it with psdf trace) and print each program's phase breakdown")
	fs.StringVar(&c.traceJSONL, "trace-jsonl", "", "write the span trace as JSON lines")
	fs.StringVar(&c.metricsOut, "metrics-out", "", "write the metrics registry (Prometheus text) to this file after the run (- for stdout)")
	fs.StringVar(&c.httpAddr, "http", "", "serve the introspection mux (/metrics, /statusz, /statusz/stream, /flightz, /debug/pprof) on this address during the run")
	fs.BoolVar(&c.httpLinger, "http-linger", false, "with -http: keep the listener serving after the analyses finish (POST /quitquitquit to exit)")
	fs.DurationVar(&c.stallTO, "stall-timeout", 0, "per-analysis no-progress watchdog deadline (0 disables); firing dumps the flight recorder")
	fs.StringVar(&c.stallDump, "stall-dump", "", "write flight-recorder dumps to this file (default stderr)")
	fs.BoolVar(&c.forceStall, "force-stall", false, "hold each analysis open until its stall watchdog fires (smoke-tests the stall path; requires -stall-timeout)")
	fs.BoolVar(&c.pprofLabels, "pprof-labels", false, "attach pprof goroutine labels (job, phase) to analysis goroutines and the HSM prover")
	fs.StringVar(&c.profileOut, "profile-out", "", "profile every analysis and write the psdf-profile/1 JSON report to `file` (render it with psdf profile)")
	c.log = addLogFlags(fs)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: psdf [flags] program.mpl [more.mpl ...]")
		fmt.Fprintln(os.Stderr, "       psdf sim|lint|trace|bench|fuzz|profile [flags] ...")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	if c.forceStall && c.stallTO <= 0 {
		fmt.Fprintln(os.Stderr, "psdf: -force-stall requires -stall-timeout > 0")
		return 2
	}
	return analyze(fs.Args(), c)
}

// analyze runs every program through core.AnalyzeAll and prints each
// report in input order. It returns the process exit code.
func analyze(paths []string, c analyzeConfig) int {
	progs, err := loadPrograms(paths)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psdf:", err)
		return 1
	}
	if c.cfgDot {
		for _, p := range progs {
			header(progs, p)
			fmt.Print(p.g.Dot(p.path))
		}
		return 0
	}
	backend, ok := map[string]cg.Backend{"array": cg.ArrayBackend, "map": cg.MapBackend}[c.backend]
	if !ok {
		fmt.Fprintf(os.Stderr, "psdf: unknown backend %q\n", c.backend)
		return 2
	}
	opts := core.Options{
		CGOpts:           cg.Options{Backend: backend},
		NonBlockingSends: c.nonBlock,
		Schedule:         c.schedule,
		Log:              c.log.logger(),
		StallTimeout:     c.stallTO,
		ForceStall:       c.forceStall,
		ProfileLabels:    c.pprofLabels,
	}
	jobs, err := newJobs(progs, c.client, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psdf:", err)
		return 2
	}
	o, err := startObservers(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psdf:", err)
		return 1
	}
	defer o.close()
	laneNames := map[int]string{}
	for i := range jobs {
		jo := &jobs[i].Opts
		jo.CGOpts.Stats = &cg.Stats{}
		jo.Tracer, jo.Metrics, jo.Progress = o.tracer, o.reg, o.tracker
		jo.FlightRecorder, jo.StallDump = o.rec, o.stallDump
		if c.profileOut != "" {
			jo.Profiler = prof.New()
		}
		laneNames[i+1] = progs[i].path
		if m, ok := jo.Matcher.(*cartesian.Matcher); ok {
			// AnalyzeAll gives job i trace pid i+1.
			m.SetObs(o.tracer, i+1)
			m.Prover().ProfileLabels = c.pprofLabels
			if o.reg != nil {
				core.RegisterMatchMemoMetrics(o.reg, m.Memo(), progs[i].path)
			}
		}
	}

	results := core.AnalyzeAll(jobs, c.parallel)
	if o.tracer != nil {
		// With one retaining tracer shared across jobs, each JobResult's
		// Phases snapshots the shared totals; recover per-job breakdowns
		// from the retained events instead.
		byPid := obs.TotalsByPid(o.tracer.Events())
		for i := range results {
			results[i].Phases = byPid[i+1]
		}
	}
	exit := 0
	for i, jr := range results {
		header(progs, progs[i])
		if !report(progs[i], jobs[i], jr, c, o.tracer != nil) {
			exit = 1
		}
	}
	if err := o.writeOutputs(c, laneNames); err != nil {
		fmt.Fprintln(os.Stderr, "psdf:", err)
		return 1
	}
	if c.profileOut != "" {
		var reps []*prof.Report
		for i, jr := range results {
			if jr.Err == nil {
				reps = append(reps, jobs[i].Opts.Profiler.Report(jr.Name, progs[i].src))
			}
		}
		if err := writeFile(c.profileOut, func(w io.Writer) error { return prof.WriteJSON(w, reps) }); err != nil {
			fmt.Fprintln(os.Stderr, "psdf:", err)
			return 1
		}
		fmt.Printf("profile: %d report(s) -> %s (render with `psdf profile %s`)\n",
			len(reps), c.profileOut, c.profileOut)
	}
	o.linger(c.httpAddr)
	return exit
}

// header separates the reports of a multi-program run.
func header(progs []*program, p *program) {
	if len(progs) > 1 {
		fmt.Printf("==> %s <==\n", p.path)
	}
}

// report prints one program's analysis on stdout and its failures on
// stderr, returning false when the program fails the run.
func report(p *program, job core.Job, jr core.JobResult, c analyzeConfig, phases bool) bool {
	if jr.Err != nil {
		fmt.Fprintf(os.Stderr, "psdf: %s: %v\n", p.path, jr.Err)
		return false
	}
	res := jr.Res
	if c.pcfgDot {
		fmt.Print(res.PCFGDot(p.path))
		return true
	}
	rep := topology.Build(p.g, res)
	if c.dot {
		fmt.Print(rep.Dot(p.path))
	} else {
		fmt.Print(rep)
	}
	for _, pr := range res.Prints {
		if pr.Known {
			fmt.Printf("  print at n%d on %s always outputs %d\n", pr.Node, pr.Range, pr.Val)
		}
	}
	var vr *verify.Report
	if c.verify || c.failOnFind {
		vr = verify.Check(p.g, res)
	}
	if c.verify {
		fmt.Println(vr)
	}
	if c.stats {
		st := job.Opts.CGOpts.Stats
		fmt.Printf("stats: %d pCFG nodes, %d steps, %d widenings, %d incremental closures (avg %.1f vars), %d joins\n",
			res.Configs, res.Steps, res.Widenings, st.IncrClosures(), st.AvgIncrVars(), st.Joins())
		if m, ok := job.Opts.Matcher.(*cartesian.Matcher); ok {
			if memo := m.Memo(); memo.HitCount()+memo.MissCount() > 0 {
				fmt.Printf("  match-memo: %d hits / %d misses (%.0f%% hit rate), %d entries\n",
					memo.HitCount(), memo.MissCount(), 100*memo.HitRate(), memo.Len())
			}
		}
	}
	if ph := formatPhases(jr.Phases); phases && ph != "" {
		fmt.Printf("  phases: %s\n", ph)
	}
	ok := true
	if !res.Clean() {
		fmt.Fprintf(os.Stderr, "psdf: %s: analysis incomplete: %v\n", p.path, res.TopReasons())
		ok = false
	}
	if c.failOnFind {
		for _, f := range vr.Findings {
			fmt.Fprintf(os.Stderr, "psdf: %s: FINDING %s: %s\n", p.path, f.Kind, f.Message)
			ok = false
		}
	}
	return ok
}

// formatPhases renders a job's phase totals as "phase dur (count)" pairs,
// heaviest first, skipping the enclosing analyze span (it spans the whole
// job and would read as 100%).
func formatPhases(totals obs.PhaseTotals) string {
	var names []string
	for name, st := range totals {
		if name != obs.PhaseAnalyze.String() && st.Count > 0 {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := totals[names[i]], totals[names[j]]
		if a.Total != b.Total {
			return a.Total > b.Total
		}
		return names[i] < names[j]
	})
	for i, name := range names {
		st := totals[name]
		names[i] = fmt.Sprintf("%s %v (%d)", name, st.Total.Round(time.Microsecond), st.Count)
	}
	return strings.Join(names, ", ")
}

// observers is the run-wide, race-safe instrumentation the flags select;
// each field is nil when its flags are off.
type observers struct {
	tracer    *obs.Tracer
	reg       *obs.Registry
	tracker   *obs.ProgressTracker
	rec       *obs.FlightRecorder
	stallDump io.Writer
	dumpFile  *os.File
	srv       *http.Server
	quit      chan struct{}
}

func startObservers(c analyzeConfig) (*observers, error) {
	o := &observers{}
	if c.traceOut != "" || c.traceJSONL != "" {
		o.tracer = obs.NewTracer()
	}
	if c.metricsOut != "" || c.httpAddr != "" {
		o.reg = obs.NewRegistry()
	}
	if c.httpAddr != "" {
		o.tracker = obs.NewProgressTracker()
	}
	if c.stallTO > 0 || c.httpAddr != "" {
		o.rec = obs.NewFlightRecorder(flightBuffer)
	}
	if c.stallTO > 0 {
		// Created up front so a dump mid-run cannot fail on open.
		o.stallDump = os.Stderr
		if c.stallDump != "" {
			f, err := os.Create(c.stallDump)
			if err != nil {
				return nil, err
			}
			o.dumpFile, o.stallDump = f, f
		}
	}
	if c.httpAddr != "" {
		// Bind before any analysis starts: a busy address fails the run
		// instead of leaving it unobservable.
		ln, err := net.Listen("tcp", c.httpAddr)
		if err != nil {
			o.close()
			return nil, fmt.Errorf("http: %w", err)
		}
		var quit func()
		if c.httpLinger {
			o.quit = make(chan struct{})
			var once sync.Once
			quit = func() { once.Do(func() { close(o.quit) }) }
		}
		o.srv = &http.Server{Handler: obs.NewHTTPMux(o.reg, o.tracker, o.rec, quit)}
		go func() { _ = o.srv.Serve(ln) }()
	}
	return o, nil
}

// writeOutputs flushes the trace and metrics files the flags select.
func (o *observers) writeOutputs(c analyzeConfig, laneNames map[int]string) error {
	evs := o.tracer.Events()
	if c.traceOut != "" {
		if err := writeFile(c.traceOut, func(w io.Writer) error { return obs.WriteChromeTrace(w, evs, laneNames) }); err != nil {
			return err
		}
		fmt.Printf("trace: %d events -> %s (load at https://ui.perfetto.dev or run `psdf trace %s`)\n",
			len(evs), c.traceOut, c.traceOut)
	}
	if c.traceJSONL != "" {
		if err := writeFile(c.traceJSONL, func(w io.Writer) error { return obs.WriteJSONL(w, evs) }); err != nil {
			return err
		}
	}
	if c.metricsOut != "" {
		return writeFile(c.metricsOut, o.reg.WritePrometheus)
	}
	return nil
}

// linger keeps the introspection listener serving until POST
// /quitquitquit when -http-linger is set.
func (o *observers) linger(addr string) {
	if o.quit == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "psdf: lingering on %s (POST /quitquitquit to exit)\n", addr)
	<-o.quit
}

func (o *observers) close() {
	if o.srv != nil {
		_ = o.srv.Close()
	}
	if o.dumpFile != nil {
		_ = o.dumpFile.Close()
	}
}

// writeFile creates path and fills it with write; "-" writes to stdout.
func writeFile(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
