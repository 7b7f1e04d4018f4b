package procset

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cg"
	"repro/internal/sym"
)

// enrichPerAtom is the reference enrichment: every atom of the bound walks
// its own variable's equality class, even when an earlier atom already
// walked the same class. Ctx.Enrich must produce exactly its atom slice.
func enrichPerAtom(ctx Ctx, b Bound) Bound {
	if ctx.G == nil || !b.IsValid() {
		return b
	}
	out := b
	for _, a := range b.atoms {
		v, c, ok := a.AsVarPlusConst()
		if !ok {
			continue
		}
		name := v
		if name == "" {
			name = cg.ZeroVar
		}
		if !ctx.G.HasVar(name) {
			continue
		}
		for _, w := range ctx.G.EqualWitnesses(name) {
			if w.Var == cg.ZeroVar {
				out = out.Insert(sym.Const(w.C + c))
			} else {
				out = out.Insert(sym.VarPlus(w.Var, w.C+c))
			}
		}
	}
	return out
}

var enrichVars = []string{"a", "b", "c", "d", "e", "i", "np", "wp0"}

// randomEnrichGraph builds a graph whose equality classes have several
// members, some pinned to constants through ZeroVar, plus one-sided
// bounds. Some graphs are widened against a perturbed copy, so the
// matrix read by EqualWitnesses is also exercised unclosed.
func randomEnrichGraph(r *rand.Rand) *cg.Graph {
	pick := func() string { return enrichVars[r.Intn(len(enrichVars))] }
	g := cg.NewDefault()
	for _, v := range enrichVars[:1+r.Intn(len(enrichVars))] {
		g.AddVar(v)
	}
	for n := r.Intn(7); n > 0; n-- {
		switch r.Intn(4) {
		case 0, 1:
			g.AddEq(pick(), pick(), int64(r.Intn(7)-3))
		case 2:
			g.SetConst(pick(), int64(r.Intn(9)-2))
		default:
			g.AddLE(pick(), pick(), int64(r.Intn(5)))
		}
	}
	if r.Intn(4) == 0 {
		h := g.Clone()
		h.AddLE(pick(), pick(), int64(r.Intn(3)))
		w := cg.Widen(g, h)
		if r.Intn(2) == 0 {
			w.AddEq(pick(), pick(), int64(r.Intn(5)-2))
		}
		return w
	}
	return g
}

// randomEnrichBound draws a bound that mixes exact class members (atoms
// the graph proves equal to the first one), stale atoms whose offsets
// disagree with the graph, unrelated variables, constants and a non-affine
// atom, sometimes filled up to the atom cap.
func randomEnrichBound(r *rand.Rand, g *cg.Graph) Bound {
	v := enrichVars[r.Intn(len(enrichVars))]
	c := int64(r.Intn(5) - 2)
	b := NewBound(sym.VarPlus(v, c))
	if r.Intn(4) == 0 {
		b = NewBound(sym.Const(c))
	}
	want := 1 + r.Intn(maxAtoms+2)
	if r.Intn(3) == 0 {
		want = maxAtoms
	}
	for len(b.atoms) < want {
		switch r.Intn(6) {
		case 0, 1: // an exact class member of v + c
			if ws := g.EqualWitnesses(v); len(ws) > 0 {
				w := ws[r.Intn(len(ws))]
				if w.Var == cg.ZeroVar {
					b = b.Insert(sym.Const(w.C + c))
				} else {
					b = b.Insert(sym.VarPlus(w.Var, w.C+c))
				}
				continue
			}
			b = b.Insert(sym.Const(int64(r.Intn(9) - 2)))
		case 2: // a stale member: right class, wrong offset
			if ws := g.EqualWitnesses(v); len(ws) > 0 {
				w := ws[r.Intn(len(ws))]
				d := int64(1 + r.Intn(3))
				if w.Var == cg.ZeroVar {
					b = b.Insert(sym.Const(w.C + c + d))
				} else {
					b = b.Insert(sym.VarPlus(w.Var, w.C+c-d))
				}
				continue
			}
			b = b.Insert(sym.VarPlus(enrichVars[r.Intn(len(enrichVars))], int64(r.Intn(5)-2)))
		case 3:
			b = b.Insert(sym.VarPlus(enrichVars[r.Intn(len(enrichVars))], int64(r.Intn(7)-3)))
		case 4:
			b = b.Insert(sym.Const(int64(r.Intn(9) - 2)))
		default:
			if r.Intn(4) == 0 {
				b = b.Insert(sym.Mul(sym.Var("a"), sym.Var("b")))
			} else {
				b = b.Insert(sym.Var("unrelated"))
			}
		}
		if len(b.atoms) >= maxAtoms {
			break
		}
	}
	return b
}

func sameAtoms(a, b Bound) bool {
	if len(a.atoms) != len(b.atoms) {
		return false
	}
	for i := range a.atoms {
		if !sym.Equal(a.atoms[i], b.atoms[i]) {
			return false
		}
	}
	return true
}

// TestEnrichClassOnceMatchesPerAtom checks that walking each equality
// class once per bound yields exactly the atoms of the per-atom walk, on
// random graphs and bounds that include capped, stale and contradictory
// atom classes.
func TestEnrichClassOnceMatchesPerAtom(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	var contradictory, capped int
	for iter := 0; iter < 20000; iter++ {
		g := randomEnrichGraph(r)
		ctx := Ctx{G: g}
		b := randomEnrichBound(r, g)
		if len(b.atoms) == maxAtoms {
			capped++
		}
		got, want := ctx.Enrich(b), enrichPerAtom(ctx, b)
		if !sameAtoms(got, want) {
			t.Fatalf("iter %d: Enrich(%s) = %s, per-atom = %s\ngraph: %s",
				iter, b.StringAll(), got.StringAll(), want.StringAll(), g)
		}
		// Enriching an enriched bound is where whole classes get skipped.
		got2, want2 := ctx.Enrich(got), enrichPerAtom(ctx, want)
		if !sameAtoms(got2, want2) {
			t.Fatalf("iter %d: re-Enrich(%s) = %s, per-atom = %s\ngraph: %s",
				iter, got.StringAll(), got2.StringAll(), want2.StringAll(), g)
		}
		if len(got.atoms) > 1 && ctx.Contradictory(got) {
			contradictory++
		}
	}
	if capped == 0 || contradictory == 0 {
		t.Errorf("generator coverage: %d capped bounds, %d contradictory classes", capped, contradictory)
	}
}

// fullClassCtx is a context whose graph puts np, the loop counter i and
// two widening parameters in one equality class, next to a constant and
// one-sided bounds.
func fullClassCtx() Ctx {
	g := cg.NewDefault()
	g.AddLE(cg.ZeroVar, "np", -2)
	g.AddEq("i", "np", -1)
	g.AddEq("wp0", "i", 0)
	g.AddEq("wp1", "i", 1)
	g.SetConst("j", 3)
	for k := 0; k < 8; k++ {
		g.AddLE(fmt.Sprintf("u%d", k), "np", int64(k))
	}
	return Ctx{G: g}
}

var enrichSink Bound

// BenchmarkEnrich measures enrichment of a bound that already holds its
// whole equality class — the common case on the engine's combine path,
// where most calls change nothing.
func BenchmarkEnrich(b *testing.B) {
	ctx := fullClassCtx()
	full := ctx.Enrich(NewBound(sym.VarPlus("np", -1)))
	if len(full.atoms) < 4 {
		b.Fatalf("class too small: %s", full.StringAll())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enrichSink = ctx.Enrich(full)
	}
}
