package differ

import (
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/prof"
)

// TestKnownProgramsAreOK pins the harness itself: the repository's known
// clean patterns must triage as ok, and classic divergences land in their
// documented class.
func TestKnownProgramsAreOK(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want Class
	}{
		{"exchange", `
assume np >= 3
if id == 0 then
  x := 5
  send x -> 1
  recv y <- 1
else
  if id == 1 then
    recv y <- 0
    send y -> 0
  end
end
`, ClassOK},
		{"shift", `
assume np >= 4
if id == 0 then
  send x -> id + 1
elif id <= np - 2 then
  recv y <- id - 1
  send y -> id + 1
else
  recv y <- id - 1
end
`, ClassOK},
		{"deadlock-skipped", `
assume np >= 2
if id == 0 then
  recv y <- 1
end
`, ClassSkipped},
		{"nonaffine-top-precision", `
assume np >= 2
if id * id == 0 then
  send x -> 1
end
if id == 1 then
  recv y <- 0
end
`, ClassPrecision},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := Check(tc.src, Options{})
			if f.Class != tc.want {
				t.Fatalf("class = %v, want %v (finding: %s)", f.Class, tc.want, f)
			}
		})
	}
}

// TestTuningOverrideSeedsPrecision proves the tuning-override hook can
// seed a divergence: starving the visit budget forces a ⊤ give-up on a
// loopy program the default configuration analyzes exactly.
func TestTuningOverrideSeedsPrecision(t *testing.T) {
	src := `
assume np >= 4
if id == 0 then
  for i := 1 to np - 1 do
    send x -> i
    recv y <- i
  end
else
  recv y <- 0
  send y -> 0
end
`
	if f := Check(src, Options{}); f.Class != ClassOK {
		t.Fatalf("default tuning: class = %v, want ok (%s)", f.Class, f)
	}
	starved := Options{Core: core.Options{MaxVisits: 3}}
	if f := Check(src, starved); f.Class != ClassPrecision {
		t.Fatalf("starved tuning: class = %v, want precision (%s)", f.Class, f)
	}
}

// TestCheckKeepsCoreProfiler: a profiler passed in the analysis options
// reaches the analysis (Check once overwrote it with a separate, usually
// nil, field).
func TestCheckKeepsCoreProfiler(t *testing.T) {
	p := prof.New()
	src := "assume np >= 2\nif id == 0 then\n  send 7 -> 1\nelif id == 1 then\n  recv y <- 0\nend\n"
	if f := Check(src, Options{Core: core.Options{Profiler: p}}); f.Class == ClassError {
		t.Fatalf("harness error: %s", f)
	}
	if steps := p.Report("check", src).Totals.Steps; steps == 0 {
		t.Error("profiler in Options.Core recorded no steps")
	}
}

// TestDifferSweep is the bounded differential sweep: every generated safe
// program must triage ok (or at worst a known precision loss — never a
// soundness divergence or a harness error). CI runs a slice under -race; the
// full-acceptance 2000-program sweep runs via `psdf fuzz` (see the CI
// workflow) and PSDF_DIFF_ITERS scales this test up to it.
func TestDifferSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped in -short mode")
	}
	n := 25
	if s := os.Getenv("PSDF_DIFF_ITERS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad PSDF_DIFF_ITERS %q: %v", s, err)
		}
		n = v
	}
	res := Sweep(SweepOptions{Seed: 1, N: n})
	for _, f := range res.Findings {
		switch f.Finding.Class {
		case ClassSoundness, ClassError:
			t.Errorf("program %d (seed %d): %s\n%s", f.Index, f.Seed, f.Finding, f.Program.Src)
		case ClassPrecision:
			t.Logf("program %d (seed %d): %s", f.Index, f.Seed, f.Finding)
		}
	}
	t.Logf("sweep: %d programs: ok=%d precision=%d skipped=%d soundness=%d error=%d",
		res.Programs, res.Counts[ClassOK], res.Counts[ClassPrecision], res.Counts[ClassSkipped],
		res.Counts[ClassSoundness], res.Counts[ClassError])
}

// TestSweepDeterminism: the same (seed, N) sweep reproduces byte-identical
// findings — the property the fixed-seed CI gate and the bench-history
// fuzz block rely on.
func TestSweepDeterminism(t *testing.T) {
	a := Sweep(SweepOptions{Seed: 7, N: 10})
	b := Sweep(SweepOptions{Seed: 7, N: 10})
	if len(a.Findings) != len(b.Findings) {
		t.Fatalf("finding counts differ: %d vs %d", len(a.Findings), len(b.Findings))
	}
	for i := range a.Findings {
		fa, fb := a.Findings[i], b.Findings[i]
		if fa.Program.Src != fb.Program.Src || fa.Finding.String() != fb.Finding.String() {
			t.Errorf("finding %d differs between identical sweeps", i)
		}
	}
	for c, n := range a.Counts {
		if b.Counts[c] != n {
			t.Errorf("count[%v] = %d vs %d", c, n, b.Counts[c])
		}
	}
}

// TestBuggyProgramsAreSkipped: deliberately-buggy programs must never be
// classified as soundness or error findings — the oracle skips what it
// cannot judge (deadlocks, runtime errors), and leaks/tag mismatches are
// lint territory.
func TestBuggyProgramsAreSkipped(t *testing.T) {
	res := Sweep(SweepOptions{Seed: 3, N: 12, BuggyFraction: 1})
	for _, f := range res.Findings {
		if f.Finding.Class == ClassSoundness || f.Finding.Class == ClassError {
			t.Errorf("buggy program %d (bug %s) triaged %s:\n%s",
				f.Index, f.Program.Bug, f.Finding, f.Program.Src)
		}
	}
	t.Logf("buggy sweep counts: %v", res.Counts)
}
