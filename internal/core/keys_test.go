package core_test

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
)

// revisionStates returns every canonicalized state the engine delivers to
// its table on the paper workloads, under both send models (non-blocking
// sends add pending records).
func revisionStates(t *testing.T) []*core.State {
	t.Helper()
	var out []*core.State
	for _, nb := range []bool{false, true} {
		for _, w := range bench.All() {
			_, g := w.Parse()
			opts := core.Options{NonBlockingSends: nb, Matcher: cartesian.New(core.ScanInvariants(g))}
			if _, err := core.AnalyzeObserving(g, opts, func(_ string, st *core.State) {
				out = append(out, st)
			}, nil); err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
		}
	}
	return out
}

// TestEraseSetIDsMatchesRegexp pins the byte scan behind the canonical
// tie-break keys to the regexp replace it replaced, over every string of
// up to seven bytes from an alphabet that can form, break and chain set
// prefixes, and over every range the paper workloads render. The output
// orders sets and pending records, so it must be byte-identical.
func TestEraseSetIDsMatchesRegexp(t *testing.T) {
	re := regexp.MustCompile(`ps\d+\.`)
	check := func(s string) {
		if got, want := core.EraseSetIDs(s), re.ReplaceAllString(s, "ps."); got != want {
			t.Fatalf("EraseSetIDs(%q) = %q, want %q", s, got, want)
		}
	}
	const alphabet = "ps07.x"
	var walk func(prefix []byte)
	walk = func(prefix []byte) {
		check(string(prefix))
		if len(prefix) == 7 {
			return
		}
		for i := 0; i < len(alphabet); i++ {
			walk(append(prefix, alphabet[i]))
		}
	}
	walk(nil)
	rendered := 0
	for _, st := range revisionStates(t) {
		for _, p := range st.Sets {
			check(p.Range.String())
			check(p.Range.StringAll())
			rendered++
		}
		for _, m := range st.Matches {
			check(m.String())
		}
		for _, p := range st.Pending {
			check(p.Senders.String())
		}
	}
	if rendered == 0 {
		t.Fatal("no ranges rendered")
	}
}

// TestShapeKeyRendering pins ShapeKey byte-for-byte to its definition
// (shape keys name pCFG edges and give-up reasons and enter the
// fingerprints): the canonical sets as n<node>[*] joined by "|", then
// |p<node><shape> per pending record.
func TestShapeKeyRendering(t *testing.T) {
	pending := 0
	for _, st := range revisionStates(t) {
		if st.Top {
			continue
		}
		got := st.ShapeKey()
		parts := make([]string, len(st.Sets))
		for i, p := range st.Sets {
			b := ""
			if p.Blocked {
				b = "*"
			}
			parts[i] = fmt.Sprintf("n%d%s", p.Node.ID, b)
		}
		want := strings.Join(parts, "|")
		for _, p := range st.Pending {
			want += fmt.Sprintf("|p%d%s", p.Node, p.Shape)
			pending++
		}
		if got != want {
			t.Fatalf("ShapeKey = %q, want %q", got, want)
		}
	}
	if pending == 0 {
		t.Fatal("no pending records exercised")
	}
}
