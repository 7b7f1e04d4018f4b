package cg

import (
	"math/rand"
	"testing"
)

// TestAppendKeyMatchesString checks that AppendKey is an exact binary
// twin of String: over graphs built by short randomized op sequences on
// both backends (short, so that many distinct sequences reach the same
// rendering), the String → key mapping is one-to-one in both directions.
// The sequences add variables in varying orders, so equalities are
// rendered in both slot orientations, against ZeroVar, after Forget/Drop
// slot swaps and in inconsistent graphs.
func TestAppendKeyMatchesString(t *testing.T) {
	byText := map[string]string{}
	byKey := map[string]string{}
	for seed := 0; seed < 20000; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		ops := genSequence(rng, 1+rng.Intn(5))
		for _, backend := range []Backend{ArrayBackend, MapBackend} {
			g := New(Options{Backend: backend})
			for _, op := range ops {
				if c := op.apply(g); c != nil {
					c.Release()
				}
			}
			text, key := g.String(), string(g.AppendKey(nil))
			if prev, ok := byText[text]; ok && prev != key {
				t.Fatalf("seed %d: String %q has two keys", seed, text)
			}
			if prev, ok := byKey[key]; ok && prev != text {
				t.Fatalf("seed %d: one key for %q and %q", seed, prev, text)
			}
			byText[text], byKey[key] = key, text
			g.Release()
		}
	}
	if len(byText) < 1000 {
		t.Fatalf("only %d distinct renderings exercised", len(byText))
	}
	g := NewDefault()
	g.AddLE("q0", "q1", 2)
	g.AddEq("q2", ZeroVar, 4)
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { buf = g.AppendKey(buf[:0]) }); n != 0 {
		t.Errorf("AppendKey allocates %v times per call", n)
	}
}
