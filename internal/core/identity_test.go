package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/cg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
	"repro/internal/differ"
	"repro/internal/gen"
	"repro/internal/parser"
	"repro/internal/procset"
	"repro/internal/sym"
)

// keyPairs checks that the text FullKey → IdentityKey mapping is
// one-to-one in both directions over every state it is shown.
type keyPairs struct {
	t        *testing.T
	byText   map[string]string
	byID     map[string]string
	observed int
}

func newKeyPairs(t *testing.T) *keyPairs {
	return &keyPairs{t: t, byText: map[string]string{}, byID: map[string]string{}}
}

func (kp *keyPairs) observe(where string, st *core.State) {
	kp.t.Helper()
	text, id := st.FullKey(), st.IdentityKey()
	kp.observed++
	if prev, ok := kp.byText[text]; ok && prev != id {
		kp.t.Fatalf("%s: one FullKey, two identity keys:\n%s\n%q\n%q", where, text, prev, id)
	}
	if prev, ok := kp.byID[id]; ok && prev != text {
		kp.t.Fatalf("%s: one identity key, two FullKeys:\n%s\n%s", where, prev, text)
	}
	kp.byText[text], kp.byID[id] = id, text
}

// observeAnalysis runs one analysis with both revision-path hooks: every
// canonicalized delivery and every canonicalized combine
// result, i.e. every state whose identity key the engine compares.
func (kp *keyPairs) observeAnalysis(name string, g *cfg.Graph) {
	kp.t.Helper()
	opts := core.Options{Matcher: cartesian.New(core.ScanInvariants(g))}
	res, err := core.AnalyzeObserving(g, opts, func(key string, st *core.State) {
		kp.observe(name+" delivery at "+key, st)
	}, func(key string, st *core.State) {
		kp.observe(name+" combine at "+key, st)
	})
	if err != nil {
		kp.t.Fatalf("%s: %v", name, err)
	}
	for _, fin := range res.Finals {
		kp.observe(name+" final", fin)
	}
}

// TestIdentityKeyMatchesFullKey pins the equivalence the revision path
// relies on: two states get equal identity keys exactly when their text
// FullKeys are equal. It is checked over every state the engine keys on
// the eight paper workloads and on generated programs drawn as `psdf
// fuzz` draws them, and on hand-built states for each case where the
// text shows less than the state holds (or orders it by slot).
func TestIdentityKeyMatchesFullKey(t *testing.T) {
	t.Run("workloads", func(t *testing.T) {
		kp := newKeyPairs(t)
		for _, w := range bench.All() {
			_, g := w.Parse()
			kp.observeAnalysis(w.Name, g)
		}
		if kp.observed < 100 {
			t.Fatalf("only %d states observed", kp.observed)
		}
	})
	t.Run("gen", func(t *testing.T) {
		n := 200
		if testing.Short() {
			n = 40
		}
		for i := 0; i < n; i++ {
			seed := differ.ProgramSeed(1, i)
			p := gen.New(rand.New(rand.NewSource(seed)), gen.Config{})
			name := fmt.Sprintf("gen seed %d", seed)
			// Fresh maps per program keep memory flat; atoms are
			// process-wide, so identity keys are comparable across
			// programs anyway.
			newKeyPairs(t).observeAnalysis(name, cfg.Build(parser.MustParse(name, p.Src)))
		}
	})
	t.Run("hand-built", testIdentityKeyCases)
}

// identityCase is a pair of hand-built states and whether their FullKeys
// (and so their identity keys) must be equal.
type identityCase struct {
	name      string
	a, b      *core.State
	wantEqual bool
}

func testIdentityKeyCases(t *testing.T) {
	n := &cfg.Node{ID: 4, Kind: cfg.Exit}
	state := func(build func(st *core.State)) *core.State {
		st := &core.State{G: cg.NewDefault()}
		st.Sets = []*core.ProcSet{{ID: 0, Node: n, Range: core.AllProcs()}}
		build(st)
		return st
	}
	x, y := "ps0.x", "ps0.y"
	e := sym.Const(0)
	multi := procset.Set{LB: procset.NewBound(e), UB: procset.NewBound(e, sym.Var("k"))}
	shift := func(valOK bool, val int64) func(*core.State) {
		return func(st *core.State) {
			st.Pending = []*core.PendingSend{{Node: 2, Shape: core.PendShift,
				Senders: procset.Singleton(e), Offset: sym.Const(1), Val: sym.Const(val), ValOK: valOK,
				Dests: procset.Singleton(sym.Const(9))}}
		}
	}
	match := func(s, r procset.Set) func(*core.State) {
		return func(st *core.State) { st.Matches = []*core.Match{{SendNode: 1, RecvNode: 2, Sender: s, Receiver: r}} }
	}
	cases := []identityCase{
		{"eq orientation follows slot order",
			state(func(st *core.State) { st.G.AddVar(x); st.G.AddEq(x, y, 1) }),
			state(func(st *core.State) { st.G.AddVar(y); st.G.AddEq(x, y, 1) }),
			false},
		{"same eq, same slot order",
			state(func(st *core.State) { st.G.AddEq(x, y, 1) }),
			state(func(st *core.State) { st.G.AddVar(x); st.G.AddVar(y); st.G.AddLE(y, x, -1); st.G.AddLE(x, y, 1) }),
			true},
		{"ZeroVar eq normalization",
			state(func(st *core.State) { st.G.AddEq(x, cg.ZeroVar, 5) }),
			state(func(st *core.State) { st.G.AddEq(cg.ZeroVar, x, -5) }),
			true},
		{"bounds against ZeroVar",
			state(func(st *core.State) { st.G.AddLE(x, cg.ZeroVar, 5) }),
			state(func(st *core.State) { st.G.AddLE(cg.ZeroVar, x, -5) }),
			false},
		{"inconsistent graphs",
			state(func(st *core.State) { st.G.AddLE(x, y, 1); st.G.MarkInconsistent() }),
			state(func(st *core.State) { st.G.AddEq(y, cg.ZeroVar, 3); st.G.MarkInconsistent() }),
			true},
		{"[e] vs [e..e] with a multi-atom bound",
			state(match(procset.Singleton(e), multi)),
			state(match(procset.Singleton(e), procset.Singleton(e))),
			false},
		{"multi-atom bounds show their primary atom",
			state(match(multi, multi)),
			state(match(multi, procset.Set{LB: procset.NewBound(e), UB: procset.NewBound(e, sym.Var("j"))})),
			true},
		{"two different invalid sets",
			state(match(procset.Set{UB: procset.NewBound(e)}, multi)),
			state(match(procset.Set{LB: procset.NewBound(sym.Var("k"))}, multi)),
			true},
		{"ranges show every atom",
			state(func(st *core.State) { st.Sets[0].Range = multi }),
			state(func(st *core.State) {
				st.Sets[0].Range = procset.Set{LB: procset.NewBound(e), UB: procset.NewBound(e, sym.Var("j"))}
			}),
			false},
		{"blocked vs approx",
			state(func(st *core.State) { st.Sets[0].Blocked = true }),
			state(func(st *core.State) { st.Sets[0].Approx = true }),
			false},
		{"pending shift vs fan",
			state(shift(false, 0)),
			state(func(st *core.State) {
				shift(false, 0)(st)
				st.Pending[0].Shape = core.PendFan
			}),
			false},
		{"pending fan ignores its offset",
			state(func(st *core.State) { shift(false, 0)(st); st.Pending[0].Shape = core.PendFan }),
			state(func(st *core.State) {
				shift(false, 0)(st)
				st.Pending[0].Shape, st.Pending[0].Offset = core.PendFan, sym.Const(7)
			}),
			true},
		{"ValOK shows the payload",
			state(shift(false, 0)),
			state(shift(true, 0)),
			false},
		{"payload hidden without ValOK",
			state(shift(false, 0)),
			state(shift(false, 3)),
			true},
		{"top reasons",
			&core.State{Top: true, TopWhy: "a"},
			&core.State{Top: true, TopWhy: "b"},
			false},
	}
	for _, c := range cases {
		textEq := c.a.FullKey() == c.b.FullKey()
		idEq := c.a.IdentityKey() == c.b.IdentityKey()
		if textEq != c.wantEqual {
			t.Errorf("%s: FullKeys equal = %v, want %v:\n%s\n%s", c.name, textEq, c.wantEqual, c.a.FullKey(), c.b.FullKey())
		}
		if idEq != textEq {
			t.Errorf("%s: identity keys equal = %v but FullKeys equal = %v", c.name, idEq, textEq)
		}
	}
	// A binary key never collides with a ⊤ key.
	if top := (&core.State{Top: true}).IdentityKey(); top == state(func(*core.State) {}).IdentityKey() {
		t.Errorf("⊤ and non-⊤ identity keys collide: %q", top)
	}
}

// BenchmarkStateIdentityKey measures one uncached identity-key build on
// the largest configuration of a paper workload, against the text FullKey
// it replaces on the revision path.
func BenchmarkStateIdentityKey(b *testing.B) {
	_, g := bench.Fig7Shift().Parse()
	var big *core.State
	opts := core.Options{Matcher: cartesian.New(core.ScanInvariants(g))}
	if _, err := core.AnalyzeObserving(g, opts, func(_ string, st *core.State) {
		if big == nil || len(st.FullKey()) > len(big.FullKey()) {
			big = st
		}
	}, nil); err != nil {
		b.Fatal(err)
	}
	b.Run("identity", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			big.Clone().IdentityKey() // a clone starts with a cold key cache
		}
	})
	b.Run("fulltext", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			big.Clone().FullKey()
		}
	})
}
