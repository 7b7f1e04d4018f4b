// External test package: building real matchers requires the client
// packages, which import core.
package core_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/prof"
	"repro/internal/sem"
)

// lockedBuf is an io.Writer safe to hand to the engine's StallDump and read
// after Analyze returns (the dump happens on the watchdog goroutine).
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestForcedStallDumpsOnce drives the full stall path deterministically:
// ForceStall pins the watchdog's progress reading at zero, so the watchdog
// must fire after StallTimeout and dump the flight recorder exactly once —
// while the analysis result stays correct and clean.
func TestForcedStallDumpsOnce(t *testing.T) {
	_, g := bench.Stencil1D().Parse()
	var dump lockedBuf
	res := analyzeWith(t, g, core.Options{
		StallTimeout:   50 * time.Millisecond,
		ForceStall:     true,
		FlightRecorder: obs.NewFlightRecorder(1024),
		StallDump:      &dump,
	})
	if !res.Clean() {
		t.Fatalf("forced stall must not perturb the analysis: %v", res.TopReasons())
	}
	out := dump.String()
	if out == "" {
		t.Fatal("forced stall produced no flight-recorder dump")
	}
	if n := strings.Count(out, `"kind":"dump"`); n != 1 {
		t.Errorf("want exactly 1 dump marker event, got %d\n%s", n, out)
	}
	if n := strings.Count(out, `"kind":"stall"`); n != 1 {
		t.Errorf("want exactly 1 stall event, got %d", n)
	}
	// The recorder must carry the recent step history.
	if !strings.Contains(out, `"kind":"step"`) {
		t.Errorf("dump missing step events:\n%s", out)
	}
	// Every line is one JSON event; seqs are dense, so the dump is bounded
	// by the ring capacity.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) > 1024 {
		t.Errorf("dump exceeds ring capacity: %d lines", len(lines))
	}
}

// TestWatchdogQuietOnWorkloads runs every paper workload under a generous
// watchdog and asserts it never fires: real convergence is progress, and a
// healthy run must not produce a dump.
func TestWatchdogQuietOnWorkloads(t *testing.T) {
	for _, w := range bench.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			_, g := w.Parse()
			var dump lockedBuf
			res := analyzeWith(t, g, core.Options{
				StallTimeout:   time.Minute,
				FlightRecorder: obs.NewFlightRecorder(256),
				StallDump:      &dump,
			})
			if res == nil {
				t.Fatal("nil result")
			}
			if out := dump.String(); out != "" {
				t.Errorf("watchdog fired on a healthy run:\n%s", out)
			}
		})
	}
}

// TestProgressTrackerLiveAndFinal samples /statusz-style progress snapshots
// concurrently with a running analysis: the visited counters must be
// monotonically nondecreasing across samples, and the final snapshot must
// agree with the analysis result.
func TestProgressTrackerLiveAndFinal(t *testing.T) {
	_, g := bench.TransposeRect().Parse()
	tracker := obs.NewProgressTracker()
	done := make(chan *core.Result, 1)
	go func() {
		// AnalyzeAll runs its first job as job id 1, labelled by its name.
		jr := core.AnalyzeAll([]core.Job{{Name: "transpose-rect", G: g, Opts: core.Options{
			Matcher:  cartesian.New(core.ScanInvariants(g)),
			Progress: tracker,
		}}}, 1)[0]
		if jr.Err != nil {
			t.Error(jr.Err)
		}
		done <- jr.Res
	}()

	var lastSteps, lastConfigs, lastWiden int64
	samples := 0
	sample := func() {
		for _, p := range tracker.Snapshot() {
			if p.Job != 1 {
				continue
			}
			samples++
			if p.Steps < lastSteps || p.Configs < lastConfigs || p.Widenings < lastWiden {
				t.Errorf("progress went backwards: steps %d->%d configs %d->%d widenings %d->%d",
					lastSteps, p.Steps, lastConfigs, p.Configs, lastWiden, p.Widenings)
			}
			lastSteps, lastConfigs, lastWiden = p.Steps, p.Configs, p.Widenings
		}
	}
	var res *core.Result
	for res == nil {
		select {
		case res = <-done:
		default:
			sample()
		}
	}
	// A fast convergence can beat the first live sample to the sampler
	// registration; the final snapshot flows through the same Snapshot
	// path, so fold it into the monotonicity run rather than flaking.
	if samples == 0 {
		sample()
	}
	if samples == 0 {
		t.Fatal("never observed a progress snapshot")
	}

	snap := tracker.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("want 1 job in final snapshot, got %d", len(snap))
	}
	final := snap[0]
	if !final.Done {
		t.Error("final snapshot not marked done")
	}
	if final.Steps != int64(res.Steps) || final.Configs != int64(res.Configs) || final.Widenings != int64(res.Widenings) {
		t.Errorf("final snapshot (steps=%d configs=%d widenings=%d) disagrees with result (steps=%d configs=%d widenings=%d)",
			final.Steps, final.Configs, final.Widenings, res.Steps, res.Configs, res.Widenings)
	}
	if final.Name != "transpose-rect" {
		t.Errorf("final snapshot label wrong: name=%q", final.Name)
	}
}

// TestIntrospectionDisabledIdentical: every observation consumer on at
// once must leave the results byte-identical to a run with all of them
// off — observability only observes. Runs over the paper workloads plus
// a repro whose entries go ⊤ on both give-up paths.
func TestIntrospectionDisabledIdentical(t *testing.T) {
	progs := map[string]func() *cfg.Graph{}
	for _, w := range bench.All() {
		w := w
		progs[w.Name] = func() *cfg.Graph { _, g := w.Parse(); return g }
	}
	progs["widen_mismatch_broadcast"] = func() *cfg.Graph { return parseFile(t, wideningRepro) }
	for name, parse := range progs {
		parse := parse
		t.Run(name, func(t *testing.T) {
			plain := analyzeWith(t, parse(), core.Options{})
			var logs, dump lockedBuf
			lg, err := obs.NewLogger(&logs, "debug", "json")
			if err != nil {
				t.Fatal(err)
			}
			instrumented := analyzeWith(t, parse(), core.Options{
				Tracer:         obs.NewTracer(),
				Metrics:        obs.NewRegistry(),
				Log:            lg,
				Progress:       obs.NewProgressTracker(),
				FlightRecorder: obs.NewFlightRecorder(128),
				StallTimeout:   time.Minute,
				StallDump:      &dump,
				ProfileLabels:  true,
				Profiler:       prof.New(),
			})
			if got, want := signature(instrumented), signature(plain); got != want {
				t.Errorf("instrumentation changed the result:\n got: %s\nwant: %s", got, want)
			}
			if logs.String() == "" {
				t.Error("logger saw no lifecycle events")
			}
		})
	}
}

// wideningRepro is the fuzzer's minimized widening-failure repro: three ⊤
// entries, two from failed widenings and one stuck configuration.
const wideningRepro = "../../testdata/diffbugs/widen_mismatch_broadcast.mpl"

// gatherLoopSrc is a gather followed by a communication-free local loop:
// the peeled senders' loop iterations defeat widening, leaving one ⊤
// entry whose reason is a widening failure.
const gatherLoopSrc = `assume np >= 4
if id == 0 then
  for i := 1 to np - 1 do
    recv y <- i
  end
elif id >= 1 then
  send np - id -> 0
end
var t2
t2 := 0
while t2 < 3 do
  t2 := t2 + 1
end
`

func parseSrc(t *testing.T, name, src string) *cfg.Graph {
	t.Helper()
	prog, err := parser.Parse(name, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sem.Check(prog); err != nil {
		t.Fatal(err)
	}
	return cfg.Build(prog)
}

// TestGiveUpsCountEveryTop: every table entry that becomes ⊤ is one
// give-up event. The give-up count in the final progress snapshot and in
// the convergence log line equals the number of ⊤ entries (len(Tops): no
// step budget is hit here, so every ⊤ is a table entry), and the flight
// recorder holds one giveup event per ⊤ entry with its reason as detail,
// preceded by that entry's combine events.
func TestGiveUpsCountEveryTop(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    func() *cfg.Graph
		tops int
	}{
		{"gather_loop", func() *cfg.Graph { return parseSrc(t, "gather_loop.mpl", gatherLoopSrc) }, 1},
		{"widen_mismatch_broadcast", func() *cfg.Graph { return parseFile(t, wideningRepro) }, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g()
			tracker := obs.NewProgressTracker()
			rec := obs.NewFlightRecorder(1 << 14)
			var logs lockedBuf
			lg, err := obs.NewLogger(&logs, "info", "json")
			if err != nil {
				t.Fatal(err)
			}
			jr := core.AnalyzeAll([]core.Job{{Name: tc.name, G: g, Opts: core.Options{
				Matcher:        cartesian.New(core.ScanInvariants(g)),
				Progress:       tracker,
				FlightRecorder: rec,
				Log:            lg,
			}}}, 1)[0]
			if jr.Err != nil {
				t.Fatal(jr.Err)
			}
			if got := len(jr.Res.Tops); got != tc.tops {
				t.Fatalf("⊤ entries = %d, want %d: %v", got, tc.tops, jr.Res.TopReasons())
			}

			if snap := tracker.Snapshot(); len(snap) != 1 || snap[0].GiveUps != int64(tc.tops) {
				t.Errorf("final progress snapshot = %+v, want give_ups %d", snap, tc.tops)
			}

			var done map[string]any
			for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
				var rec map[string]any
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("log line %q: %v", line, err)
				}
				if rec["msg"] == "analysis converged with give-ups" {
					done = rec
				}
			}
			if done == nil || done["give_ups"] != float64(tc.tops) {
				t.Errorf("convergence log line = %v, want give_ups %d", done, tc.tops)
			}

			if rec.Total() > uint64(rec.Cap()) {
				t.Fatalf("flight recorder wrapped (%d events > %d)", rec.Total(), rec.Cap())
			}
			wantWhy := map[string]int{}
			for _, top := range jr.Res.Tops {
				wantWhy[top.TopWhy]++
			}
			combined := map[string]bool{}
			giveups := 0
			for _, ev := range rec.Snapshot() {
				switch ev.Kind {
				case "combine":
					combined[ev.Key] = true
				case "giveup":
					giveups++
					if wantWhy[ev.Detail] == 0 {
						t.Errorf("giveup %q: detail is no ⊤ entry's reason", ev.Detail)
					}
					wantWhy[ev.Detail]--
					// The stuck give-ups share the one TOP entry, which is
					// created, never combined.
					if ev.Key != "TOP" && !combined[ev.Key] {
						t.Errorf("giveup at %s not preceded by its combine events", ev.Key)
					}
				}
			}
			if giveups != tc.tops {
				t.Errorf("flight recorder holds %d giveup events, want %d", giveups, tc.tops)
			}
		})
	}
}
