// External test package: building real matchers requires the client
// packages, which import core.
package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
	"repro/internal/parser"
)

// signature renders everything the analysis promises to reproduce run to
// run: terminal configurations, give-up reasons, the communication
// topology and cleanliness.
func signature(res *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "clean=%v configs=%d\n", res.Clean(), res.Configs)
	for _, f := range res.Finals {
		fmt.Fprintf(&b, "final %s\n", f.FullKey())
	}
	b.WriteString(topoSignature(res))
	return b.String()
}

// topoSignature is the schedule-independent part: a non-FIFO schedule
// reorders the join/widen ladder and may converge to a syntactically
// different (equally sound) final constraint graph, but cleanliness, the
// give-up set and the communication topology must not move.
func topoSignature(res *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "clean=%v\n", res.Clean())
	for _, t := range res.Tops {
		fmt.Fprintf(&b, "top %s\n", t.TopWhy)
	}
	for _, m := range res.Matches {
		fmt.Fprintf(&b, "match %s\n", m.String())
	}
	return b.String()
}

func analyzeWith(t *testing.T, g *cfg.Graph, opts core.Options) *core.Result {
	t.Helper()
	opts.Matcher = cartesian.New(core.ScanInvariants(g))
	res, err := core.Analyze(g, opts)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return res
}

// TestParallelEquivalenceWorkloads runs every paper workload under both
// worklist schedules as concurrent AnalyzeAll jobs. The FIFO jobs must
// reproduce the standalone sequential result byte for byte; a LIFO job may
// converge to a syntactically different (equally sound) final constraint
// graph, but its cleanliness, give-up set and topology must not move.
func TestParallelEquivalenceWorkloads(t *testing.T) {
	fifo := workloadPrograms(core.Options{})
	progs := append(fifo, workloadPrograms(core.Options{Schedule: core.ScheduleLIFO})...)
	sigs, _, _, _ := concurrentSignatures(t, progs, 4)
	for i, p := range fifo {
		i, p := i, p
		t.Run(p.name, func(t *testing.T) {
			base := analyzeWith(t, p.parse(), core.Options{})
			if got, want := sigs[i], signature(base); got != want {
				t.Errorf("fifo diverged:\n got: %s\nwant: %s", got, want)
			}
			lifo := analyzeWith(t, p.parse(), core.Options{Schedule: core.ScheduleLIFO})
			if got, want := sigs[len(fifo)+i], signature(lifo); got != want {
				t.Errorf("lifo job diverged from standalone lifo:\n got: %s\nwant: %s", got, want)
			}
			if got, want := topoSignature(lifo), topoSignature(base); got != want {
				t.Errorf("lifo topology diverged:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// testdataPrograms loads every program under testdata/ with the analysis
// mode the integration suite uses for it.
func testdataPrograms(t *testing.T) []program {
	t.Helper()
	modes := map[string]core.Options{
		"sendfirst_shift.mpl": {NonBlockingSends: true},
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.mpl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata glob: %v (%d files)", err, len(files))
	}
	var out []program
	for _, f := range files {
		f := f
		out = append(out, program{filepath.Base(f), func() *cfg.Graph { return parseFile(t, f) }, modes[filepath.Base(f)]})
	}
	return out
}

func parseFile(t *testing.T, path string) *cfg.Graph {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	prog, err := parser.Parse(filepath.Base(path), string(src))
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return cfg.Build(prog)
}

// TestParallelEquivalenceTestdata extends the job-level equivalence check
// to the repository's example programs, including the non-blocking-send
// mode and programs the analysis gives up on.
func TestParallelEquivalenceTestdata(t *testing.T) {
	progs := testdataPrograms(t)
	sigs, _, _, _ := concurrentSignatures(t, progs, 4)
	for i, p := range progs {
		i, p := i, p
		t.Run(p.name, func(t *testing.T) {
			if got, want := sigs[i], signature(analyzeWith(t, p.parse(), p.opts)); got != want {
				t.Errorf("pooled run diverged:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// TestParallelStatsPlumbed checks the key-cache instrumentation reaches a
// stats record shared by concurrent AnalyzeAll jobs.
func TestParallelStatsPlumbed(t *testing.T) {
	_, stats, _, _ := concurrentSignatures(t, workloadPrograms(core.Options{}), 2)
	if stats.KeyCacheHits()+stats.KeyCacheMisses() == 0 {
		t.Error("key cache counters never touched")
	}
	if stats.KeyCacheHits() == 0 {
		t.Error("key cache never hit")
	}
}

func TestScheduleValidation(t *testing.T) {
	_, g := bench.Fig2Exchange().Parse()
	m := cartesian.New(core.ScanInvariants(g))
	if _, err := core.Analyze(g, core.Options{Matcher: m, Schedule: "bogus"}); err == nil {
		t.Fatal("expected error for unknown schedule")
	}
}
