package sym

import (
	"math/rand"
	"strings"
	"testing"
)

// TestCompareKeyMatchesStringCompare pins CompareKey to the exact order of
// strings.Compare over rendered keys, across randomized polynomials
// (including negative coefficients, multi-variable monomials and zero).
func TestCompareKeyMatchesStringCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names := []string{"i", "j", "np", "wp0", "ps12", "$0", "x"}
	randExpr := func() Expr {
		e := Expr{}
		for n := rng.Intn(4); n >= 0; n-- {
			tm := Const(int64(rng.Intn(41) - 20))
			for v := rng.Intn(3); v > 0; v-- {
				tm = Mul(tm, Var(names[rng.Intn(len(names))]))
			}
			e = Add(e, tm)
		}
		return e
	}
	for iter := 0; iter < 5000; iter++ {
		a, b := randExpr(), randExpr()
		want := strings.Compare(a.Key(), b.Key())
		if got := a.CompareKey(b); got != want {
			t.Fatalf("CompareKey(%q, %q) = %d, want %d", a.Key(), b.Key(), got, want)
		}
		if a.CompareKey(a) != 0 || b.CompareKey(b) != 0 {
			t.Fatalf("CompareKey not reflexive for %q / %q", a.Key(), b.Key())
		}
	}
}

// TestVarCacheImmutability guards the interned Var exprs: operations on a
// cached Var must never mutate the shared value.
func TestVarCacheImmutability(t *testing.T) {
	a := Var("cachedvar")
	_ = AddConst(a, 5)
	_ = Neg(a)
	_ = Scale(a, 3)
	_ = Subst(a, "cachedvar", Const(9))
	b := Var("cachedvar")
	if b.Key() != "1*cachedvar" {
		t.Fatalf("cached Var mutated: key %q", b.Key())
	}
	if !Equal(a, b) {
		t.Fatalf("cached Var not equal to itself after ops")
	}
}

// TestCmpMatchesSub pins the allocation-free Cmp to its definition,
// Sub(a, b).IsConst(), over randomized polynomial pairs. Half the pairs
// share their non-constant part (b = a + k, or a reshuffled sum of the
// same monomials), so the cancelling branch is exercised as often as the
// early exits; extreme coefficients check that the wrapping arithmetic
// agrees too.
func TestCmpMatchesSub(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	names := []string{"i", "j", "np", "wp0", "ps1.x", "$0"}
	coefs := []int64{1, -1, 2, -3, 7, 1 << 62, -(1 << 62), 9223372036854775807, -9223372036854775808}
	monomial := func() Expr {
		tm := Const(coefs[rng.Intn(len(coefs))])
		if rng.Intn(3) == 0 {
			tm = Const(int64(rng.Intn(41) - 20))
		}
		for v := rng.Intn(3); v > 0; v-- {
			tm = Mul(tm, Var(names[rng.Intn(len(names))]))
		}
		return tm
	}
	randExpr := func() Expr {
		e := Expr{}
		for n := rng.Intn(4); n >= 0; n-- {
			e = Add(e, monomial())
		}
		return e
	}
	for iter := 0; iter < 20000; iter++ {
		a := randExpr()
		var b Expr
		switch rng.Intn(4) {
		case 0:
			b = randExpr()
		case 1:
			b = AddConst(a, int64(rng.Intn(21)-10))
		case 2:
			b = Add(Const(coefs[rng.Intn(len(coefs))]), a)
		default:
			b = Add(a, monomial()) // usually breaks the cancellation
		}
		wantD, wantOK := Sub(a, b).IsConst()
		gotD, gotOK := Cmp(a, b)
		if gotD != wantD || gotOK != wantOK {
			t.Fatalf("Cmp(%q, %q) = (%d, %v), want (%d, %v)", a.Key(), b.Key(), gotD, gotOK, wantD, wantOK)
		}
	}
	a, b := VarPlus("np", -1), VarPlus("np", 2)
	if n := testing.AllocsPerRun(100, func() { Cmp(a, b) }); n != 0 {
		t.Errorf("Cmp allocates %v times per call", n)
	}
}

// BenchmarkCmp measures the bound-comparison kernel on the shapes range
// bounds take (var + c against var + c, and against a constant).
func BenchmarkCmp(b *testing.B) {
	x, y, k := VarPlus("ps0.i", 1), VarPlus("ps0.i", -2), Const(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Cmp(x, y)
		Cmp(x, k)
	}
}
