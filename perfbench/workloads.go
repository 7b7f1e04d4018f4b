package main

import (
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/differ"
	"repro/internal/gen"
)

// oracleRun is one concrete process count (with its free-symbol values)
// at which the simulator judges a program.
type oracleRun struct {
	NP  int
	Env map[string]int64
}

// program is one benchmark input plus its known answer's specification.
type program struct {
	Index int
	Name  string
	// Seed is the generator sub-seed (differ.ProgramSeed); `psdf fuzz
	// -seed <Seed> -n 1` regenerates a fuzz program. 0 for paper programs.
	Seed int64
	Src  string
	// Oracle lists the process counts the simulator checks the verdict at;
	// counts whose assumptions fail are inadmissible and skipped.
	Oracle []oracleRun
	// Env is the generator's free-symbol binding (fuzz cross-check).
	Env map[string]int64
	// Bug is the defect injected into a lint program.
	Bug gen.BugKind
}

const (
	// fuzzPrograms and lintPrograms size the generated pools so one sweep
	// takes a few seconds on one core: long enough to hold the heavy ⊤
	// tail, short enough for several sweeps per run.
	fuzzPrograms = 60
	lintPrograms = 40
)

// buildWorkload makes the workload's program pool. The pool is a pure
// function of (name, poolSeed), and the run seed only orders the sweeps:
// gen programs' analysis times span three orders of magnitude (coefficient
// of variation about 2), so the summed time of 200 freshly drawn programs
// already differed by 14% between three seeds, and a 60-program pool
// drawn from every run seed would differ by more than any bound absorbs.
// --pool-seed measures another sample of the same population.
func buildWorkload(name string, poolSeed int64) ([]*program, error) {
	switch name {
	case "paper":
		return paperPrograms(), nil
	case "fuzz":
		return genPrograms(poolSeed, fuzzPrograms, false), nil
	case "lint":
		return genPrograms(poolSeed, lintPrograms, true), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper, fuzz or lint)", name)
}

// paperPrograms are the eight curated Section VIII programs, each checked
// at every scale whose process count lies in [4, 18]: above every
// program's assumed floor, small enough for the simulator.
func paperPrograms() []*program {
	var out []*program
	for i, w := range bench.All() {
		p := &program{Index: i, Name: w.Name, Src: w.Src}
		for scale := 1; scale <= 6; scale++ {
			if np := w.NPFor(scale); np >= 4 && np <= 18 {
				p.Oracle = append(p.Oracle, oracleRun{NP: np, Env: w.Env(scale)})
			}
		}
		out = append(out, p)
	}
	return out
}

// genPrograms draws n programs exactly as `psdf fuzz -seed poolSeed` does
// (program i from sub-seed differ.ProgramSeed(poolSeed, i)). Buggy pools
// inject the four defect kinds in rotation.
func genPrograms(poolSeed int64, n int, buggy bool) []*program {
	out := make([]*program, 0, n)
	for i := 0; i < n; i++ {
		seed := differ.ProgramSeed(poolSeed, i)
		var cfg gen.Config
		kind := "fuzz"
		if buggy {
			cfg.Bug = gen.Bugs()[i%len(gen.Bugs())]
			kind = "lint"
		}
		g := gen.New(rand.New(rand.NewSource(seed)), cfg)
		p := &program{
			Index: i, Name: fmt.Sprintf("%s-%d", kind, i), Seed: seed,
			Src: g.Src, Env: g.Env, Bug: g.Bug,
		}
		// differ.Check's default process counts, from the assumed floor.
		for np := max(2, g.MinNP); np <= 6; np++ {
			p.Oracle = append(p.Oracle, oracleRun{NP: np, Env: g.Env})
		}
		out = append(out, p)
	}
	return out
}
