package core

import (
	"testing"

	"repro/internal/obs"
)

// TestObserverDisabledZeroAlloc: with every consumer off — a nil observer,
// as newObserver returns then, or the zero observer an engine literal
// carries — no event method allocates.
func TestObserverDisabledZeroAlloc(t *testing.T) {
	st := &State{}
	fn := func() {}
	for name, o := range map[string]*observer{"nil": nil, "zero": {}} {
		allocs := testing.AllocsPerRun(100, func() {
			o.step("k").End()
			o.span(obs.PhaseKey, "k").End()
			o.stepped(o.transfer("k"), 1, 2)
			o.stepped(o.blockedStep(), 1, 2)
			o.matchEnd(o.matchBegin(), 1, true)
			o.pendingMatch(1)
			o.combine("k", 1, true, 3).End()
			o.widenFail("k", 1, st, st, nil)
			o.giveUp(topStuck, 1, "k", "why")
			o.giveUp(topWiden, 1, "k", "why")
			o.giveUp(topDemoted, 1, "k", "why")
			o.labeled("fixpoint", fn)
		})
		if allocs != 0 {
			t.Errorf("%s observer: %v allocs per event round, want 0", name, allocs)
		}
	}
}
