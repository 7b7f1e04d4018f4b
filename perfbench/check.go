package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/diag"
	"repro/internal/differ"
	"repro/internal/gen"
	"repro/internal/sim"
	"repro/internal/validate"
)

// verdict is a program's result against its known answer, ordered like
// differ's classes: a larger verdict is worse.
type verdict int

const (
	// exact: on paper and fuzz, some final concretizes to the simulator's
	// topology at every oracle np and nothing went ⊤ (differ's ClassOK);
	// on lint, the injected defect's code is reported.
	exact verdict = iota
	// skipped: the simulator could not judge some oracle np (failed
	// assumption, runtime error or deadlock).
	skipped
	// imprecise: sound, but spurious communication, a ⊤, or the defect
	// missed.
	imprecise
	// failed: the pipeline errored or panicked, or the result misses
	// communication the oracle observed without a covering ⊤.
	failed
)

func (v verdict) String() string {
	return [...]string{"exact", "skipped", "imprecise", "failed"}[v]
}

// bugCode is the lint code each injected defect must produce.
var bugCode = map[gen.BugKind]string{
	gen.BugLeak:        diag.CodeMessageLeak,
	gen.BugStuckRecv:   diag.CodeDeadlock,
	gen.BugTagMismatch: diag.CodeTagMismatch,
	gen.BugRankBounds:  diag.CodeRankBounds,
}

// judge checks one outcome against the program's known answer.
func judge(p *program, o *outcome, withLint bool) (verdict, string) {
	if o.Err != nil {
		return failed, o.Err.Error()
	}
	if withLint {
		want := bugCode[p.Bug]
		for _, d := range o.Lint.Diags {
			if d.Code == want {
				return exact, ""
			}
		}
		return imprecise, fmt.Sprintf("%s not reported for %s", want, p.Bug)
	}
	v, why, judged := exact, "", false
	for _, run := range p.Oracle {
		nv, nwhy := judgeAtNP(o, run)
		judged = judged || nv != skipped
		if nv > v {
			v, why = nv, nwhy
		}
	}
	if judged && v < imprecise && len(o.Res.Tops) > 0 {
		return imprecise, "gave up (⊤)"
	}
	return v, why
}

// judgeAtNP compares the result with one simulator run.
func judgeAtNP(o *outcome, run oracleRun) (verdict, string) {
	sr, err := sim.Run(o.G, run.NP, sim.Options{Env: run.Env})
	if err != nil || len(sr.Failures) > 0 || sr.Deadlocked {
		return skipped, fmt.Sprintf("simulator cannot judge np=%d", run.NP)
	}
	want := validate.FromSim(sr.Events)
	env := map[string]int64{"np": int64(run.NP)}
	for k, v := range run.Env {
		env[k] = v
	}
	consistent, covering := 0, 0
	for _, fin := range o.Res.Finals {
		if !validate.ConsistentWithNP(fin, run.NP, env) {
			continue
		}
		consistent++
		got := validate.FromState(fin, env)
		if same, _ := validate.Equal(got, want); same {
			return exact, ""
		}
		if covers(got, want) {
			covering++
		}
	}
	switch {
	case covering > 0:
		return imprecise, fmt.Sprintf("spurious communication at np=%d", run.NP)
	case len(o.Res.Tops) > 0:
		return imprecise, fmt.Sprintf("⊤ covers np=%d", run.NP)
	case consistent == 0:
		return failed, fmt.Sprintf("no final admits np=%d", run.NP)
	}
	return failed, fmt.Sprintf("misses communication at np=%d", run.NP)
}

// covers reports whether got contains every pair the oracle observed.
func covers(got, want *validate.PairSet) bool {
	sub := func(g, w map[[2]int]map[int64]bool) bool {
		for e, ranks := range w {
			for r := range ranks {
				if !g[e][r] {
					return false
				}
			}
		}
		return true
	}
	return sub(got.Senders, want.Senders) && sub(got.Receivers, want.Receivers)
}

// crossCheckDiffer re-triages every fuzz program with the sequential
// differ.Check and requires its classes to agree with the verdicts.
func crossCheckDiffer(progs []*program, verdicts []verdict) error {
	var bad []string
	for i, p := range progs {
		f := differ.Check(p.Src, differ.Options{SkipEngineCompare: true, Env: p.Env})
		var want verdict
		switch f.Class {
		case differ.ClassOK:
			want = exact
		case differ.ClassSkipped:
			want = skipped
		case differ.ClassPrecision:
			want = imprecise
		default:
			want = failed
		}
		if verdicts[i] != want {
			bad = append(bad, fmt.Sprintf("%s: benchmark %s, differ %s", p.Name, verdicts[i], f))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("verdicts disagree with differ.Check: %s", strings.Join(bad, "; "))
	}
	return nil
}

// signature renders what must repeat across sweeps beyond the work
// counters: the topology and, on lint, the diagnostic codes.
func signature(o *outcome) string {
	if o.Err != nil {
		return "error: " + o.Err.Error()
	}
	lines := strings.Split(o.Topo.String(), "\n")
	sort.Strings(lines)
	if o.Lint != nil {
		for _, d := range o.Lint.Diags {
			lines = append(lines, d.Code)
		}
	}
	return strings.Join(lines, "\n")
}

// record is what one run stores for the next run on the same sources to
// compare against.
type record struct {
	Source   string    `json:"source"`
	Work     []work    `json:"work"`
	Verdicts []verdict `json:"verdicts"`
}

// checkAcrossRuns compares this run's work counters and verdicts with the
// record an earlier run of the same sources and workload left at path, and
// leaves one there when there is none.
func checkAcrossRuns(path string, cur record) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return writeRecord(path, cur)
	}
	if err != nil {
		return err
	}
	var prev record
	if err := json.Unmarshal(data, &prev); err != nil || prev.Source != cur.Source {
		return writeRecord(path, cur)
	}
	for i := range cur.Work {
		if i >= len(prev.Work) || prev.Work[i] != cur.Work[i] || prev.Verdicts[i] != cur.Verdicts[i] {
			return fmt.Errorf("program %d drifted from an earlier run: work %+v verdict %s, earlier %+v %s",
				i, cur.Work[i], cur.Verdicts[i], prev.Work[i], prev.Verdicts[i])
		}
	}
	return nil
}

func writeRecord(path string, r record) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// sourceHash digests the Go sources and module files under root (skipping
// hidden and build directories), identifying the code measured even where
// the checkout carries no version control.
func sourceHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
