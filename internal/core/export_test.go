package core

import "repro/internal/cfg"

// Test-only exports: the arrival-order permutation suite lives in the
// external core_test package (building real matchers needs the client
// packages, which import core), so the pieces it drives — the revision-path
// hooks and a bare revision-replay harness — are surfaced here.

// ReplayResult is the outcome of replaying one key's revision stream into
// a fresh table entry: the converged state's identity and the ladder
// counters the determinism invariant promises are arrival-order
// independent.
type ReplayResult struct {
	FullKey string
	// ResolvedKey is FullKey after the finish()-style helper resolution and
	// projection — the representation the engine actually promises is
	// arrival-order independent (raw FullKey may carry redundant bound
	// atoms naming the same value through different surviving helpers).
	ResolvedKey string
	Rev         int
	Widenings   int64
	Top         bool
	TopWhy      string
	// Terminal marks the configurations whose constraint block is part of
	// the determinism contract: ⊤ verdicts and all-at-exit states (what the
	// engine reports as finals). Intermediate configurations may carry
	// residual process-set aliasing constraints that record the particular
	// combine pairing order; those never surface in results, so only the
	// constraint-free portion of their key is order-invariant.
	Terminal bool
}

// ReplayRevisions feeds states into a fresh table entry exactly the way
// the engine does — the first creates the entry, the rest go through
// reviseEntry — and reports the converged entry. Input states are cloned,
// never consumed.
func ReplayRevisions(opts Options, key string, states []*State) ReplayResult {
	e := &engine{
		opts:    opts,
		in:      newInterner(),
		res:     &Result{},
		obsSeen: map[string]bool{},
	}
	entry := &tableEntry{st: states[0].Clone()}
	for _, st := range states[1:] {
		e.reviseEntry(entry, st.Clone(), key)
	}
	resolved := entry.st.Clone()
	resolved.ResolveHelpers()
	return ReplayResult{
		FullKey:     entry.st.FullKey(),
		ResolvedKey: resolved.FullKey(),
		Rev:         entry.rev,
		Widenings:   e.widenings.Load(),
		Top:         entry.st.Top,
		TopWhy:      entry.st.TopWhy,
		Terminal:    entry.st.Top || e.allAtExit(entry.st),
	}
}

// AnalyzeObserving is Analyze with the engine's revision-path test hooks
// installed (either may be nil): onRevision observes a private clone of
// every canonicalized successor state delivered to the configuration
// table, keyed by shape; onCombine observes every canonicalized combine
// result (the state whose identity key reviseEntry compares with the
// entry's) before the compare and must not mutate it.
func AnalyzeObserving(g *cfg.Graph, opts Options, onRevision, onCombine func(key string, st *State)) (*Result, error) {
	e, err := newEngine(g, opts, 0, "")
	if err != nil {
		return nil, err
	}
	e.onRevision, e.onCombine = onRevision, onCombine
	return e.analyze(), nil
}

// EraseSetIDs exposes the set-prefix eraser behind the canonical
// tie-break keys.
var EraseSetIDs = eraseSetIDs
