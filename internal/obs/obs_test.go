package obs

import (
	"strings"
	"testing"
	"time"
)

// fakeClock drives a tracer deterministically: each call to now() returns
// the next scripted instant.
type fakeClock struct {
	at time.Duration
}

func (c *fakeClock) set(d time.Duration) { c.at = d }
func (c *fakeClock) now() time.Duration  { return c.at }

func newTestTracer() (*Tracer, *fakeClock) {
	t := NewTracer()
	c := &fakeClock{}
	t.clock = c.now
	return t, c
}

func TestPhaseNamesRoundTrip(t *testing.T) {
	for i := 0; i < numPhases; i++ {
		p := Phase(i)
		got, ok := PhaseFromName(p.String())
		if !ok || got != p {
			t.Errorf("PhaseFromName(%q) = %v, %v", p.String(), got, ok)
		}
	}
	if _, ok := PhaseFromName("bogus"); ok {
		t.Error("PhaseFromName accepted an unknown name")
	}
	if Phase(200).String() != "unknown" {
		t.Errorf("out-of-range phase = %q", Phase(200).String())
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() || tr.Retaining() {
		t.Error("nil tracer reports enabled")
	}
	sp := tr.Begin(1, 2, PhaseMatch, "k")
	if d := sp.End(); d != 0 {
		t.Errorf("nil span End = %v", d)
	}
	if tr.Totals() != nil || tr.Events() != nil || tr.EventCount() != 0 {
		t.Error("nil tracer returned data")
	}
}

func TestTracerTotalsAndEvents(t *testing.T) {
	tr, clk := newTestTracer()
	clk.set(10 * time.Millisecond)
	sp := tr.Begin(1, 0, PhaseStep, "cfg-a")
	clk.set(25 * time.Millisecond)
	inner := tr.Begin(1, 0, PhaseMatch, "cfg-a")
	clk.set(30 * time.Millisecond)
	inner.EndDetail("pairs=3")
	sp.End()

	tot := tr.Totals()
	if got := tot["step"]; got.Count != 1 || got.Total != 20*time.Millisecond {
		t.Errorf("step total = %+v", got)
	}
	if got := tot["match"]; got.Count != 1 || got.Total != 5*time.Millisecond {
		t.Errorf("match total = %+v", got)
	}
	if _, ok := tot["widen"]; ok {
		t.Error("unbegun phase present in totals")
	}

	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	// Enclosing span sorts first (same start? no — step starts earlier).
	if evs[0].Phase != PhaseStep || evs[1].Phase != PhaseMatch {
		t.Errorf("event order: %v, %v", evs[0].Phase, evs[1].Phase)
	}
	if evs[1].Detail != "pairs=3" || evs[1].Key != "cfg-a" {
		t.Errorf("inner event = %+v", evs[1])
	}
	if tr.EventCount() != 2 {
		t.Errorf("EventCount = %d", tr.EventCount())
	}
}

func TestAggregateTracerRetainsNothing(t *testing.T) {
	tr := NewAggregate()
	tr.clock = (&fakeClock{}).now
	tr.Begin(0, 0, PhaseJoin, "").End()
	if tr.EventCount() != 0 {
		t.Errorf("aggregate tracer retained %d events", tr.EventCount())
	}
	if got := tr.Totals()["join"]; got.Count != 1 {
		t.Errorf("aggregate totals = %+v", tr.Totals())
	}
	if tr.Retaining() {
		t.Error("aggregate tracer claims to retain")
	}
}

func TestNegativeClockClampedToZero(t *testing.T) {
	tr, clk := newTestTracer()
	clk.set(5 * time.Millisecond)
	sp := tr.Begin(0, 0, PhaseStep, "")
	clk.set(0) // clock went backwards
	if d := sp.End(); d != 0 {
		t.Errorf("dur = %v, want 0", d)
	}
}

func mkEvent(ph Phase, pid, tid int, start, dur time.Duration, key string) Event {
	return Event{Phase: ph, Pid: pid, Tid: tid, Start: start, Dur: dur, Key: key}
}

func TestSummarizeSelfTime(t *testing.T) {
	ms := time.Millisecond
	evs := []Event{
		// Lane (1,0): analyze [0,100] > step [10,40] > match [20,30];
		// second step [50,90] > transfer [55,65].
		mkEvent(PhaseAnalyze, 1, 0, 0, 100*ms, "job"),
		mkEvent(PhaseStep, 1, 0, 10*ms, 30*ms, "a"),
		mkEvent(PhaseMatch, 1, 0, 20*ms, 10*ms, "a"),
		mkEvent(PhaseStep, 1, 0, 50*ms, 40*ms, "b"),
		mkEvent(PhaseTransfer, 1, 0, 55*ms, 10*ms, "b"),
		// Prover lane: excluded from self-time and coverage accounting.
		mkEvent(PhaseProver, 1, ProverTid, 21*ms, 5*ms, "a"),
	}
	s := Summarize(evs)
	if s.Wall != 100*ms {
		t.Errorf("wall = %v", s.Wall)
	}
	want := map[Phase]time.Duration{
		PhaseAnalyze:  30 * ms, // 100 - 30 - 40
		PhaseStep:     50 * ms, // (30-10) + (40-10)
		PhaseMatch:    10 * ms,
		PhaseTransfer: 10 * ms,
	}
	for _, pc := range s.Phases {
		if pc.Phase == PhaseProver {
			if pc.Self != 0 || pc.Inclusive != 5*ms {
				t.Errorf("prover cost = %+v", pc)
			}
			continue
		}
		if pc.Self != want[pc.Phase] {
			t.Errorf("%v self = %v, want %v", pc.Phase, pc.Self, want[pc.Phase])
		}
	}
	if s.SelfSum != 100*ms {
		t.Errorf("self sum = %v, want 100ms", s.SelfSum)
	}
	if s.Coverage < 0.999 || s.Coverage > 1.001 {
		t.Errorf("coverage = %v, want ~1", s.Coverage)
	}
	// Hottest key: "b" has 30ms step-self + 10ms transfer = 40ms;
	// "a" has 20 + 10 = 30ms; "job" 30ms (ties broken by key).
	if s.HotKeys[0].Key != "b" || s.HotKeys[0].Self != 40*ms {
		t.Errorf("hot key = %+v", s.HotKeys[0])
	}
}

func TestSummarizeMultiLaneCoverage(t *testing.T) {
	ms := time.Millisecond
	evs := []Event{
		// Two worker lanes, each half covered.
		mkEvent(PhaseStep, 1, 0, 0, 50*ms, "a"),
		mkEvent(PhaseStep, 1, 1, 0, 50*ms, "b"),
		mkEvent(PhaseMatch, 1, 1, 60*ms, 40*ms, ""),
	}
	s := Summarize(evs)
	// Lane (1,0) extent 50ms fully covered; lane (1,1) extent 100ms with
	// 90ms covered. Coverage = 140/150.
	if got := s.Coverage; got < 0.93 || got > 0.94 {
		t.Errorf("coverage = %v, want ~0.933", got)
	}
}

func TestTotalsByPid(t *testing.T) {
	ms := time.Millisecond
	evs := []Event{
		mkEvent(PhaseStep, 1, 0, 0, 10*ms, "a"),
		mkEvent(PhaseStep, 1, 0, 20*ms, 5*ms, "b"),
		mkEvent(PhaseMatch, 2, 1, 0, 7*ms, "c"),
	}
	byPid := TotalsByPid(evs)
	if len(byPid) != 2 {
		t.Fatalf("pids = %d, want 2", len(byPid))
	}
	if s := byPid[1][PhaseStep.String()]; s.Count != 2 || s.Total != 15*ms {
		t.Errorf("pid 1 step = %+v", s)
	}
	if s := byPid[2][PhaseMatch.String()]; s.Count != 1 || s.Total != 7*ms {
		t.Errorf("pid 2 match = %+v", s)
	}
	if _, ok := byPid[1][PhaseMatch.String()]; ok {
		t.Error("pid 1 has a match entry from pid 2")
	}
}

func TestCheckDetectsProblems(t *testing.T) {
	ms := time.Millisecond
	if probs := Check(nil, 0); len(probs) != 1 || !strings.Contains(probs[0], "no span events") {
		t.Errorf("empty trace check = %v", probs)
	}
	good := []Event{
		mkEvent(PhaseAnalyze, 1, 0, 0, 100*ms, "job"),
		mkEvent(PhaseStep, 1, 0, 10*ms, 20*ms, "a"),
	}
	if probs := Check(good, 0.5); len(probs) != 0 {
		t.Errorf("valid trace flagged: %v", probs)
	}
	// Partial overlap on one lane is malformed nesting.
	bad := []Event{
		mkEvent(PhaseStep, 1, 0, 0, 20*ms, "a"),
		mkEvent(PhaseMatch, 1, 0, 10*ms, 20*ms, "a"),
	}
	if probs := Check(bad, 0); len(probs) == 0 {
		t.Error("partial overlap not detected")
	}
	// Same intervals on different lanes are fine.
	twoLanes := []Event{
		mkEvent(PhaseStep, 1, 0, 0, 20*ms, "a"),
		mkEvent(PhaseMatch, 1, 1, 10*ms, 20*ms, "a"),
	}
	if probs := Check(twoLanes, 0); len(probs) != 0 {
		t.Errorf("cross-lane overlap flagged: %v", probs)
	}
	// Coverage floor: a lane with a big uncovered gap.
	sparse := []Event{
		mkEvent(PhaseStep, 1, 0, 0, 10*ms, "a"),
		mkEvent(PhaseStep, 1, 0, 90*ms, 10*ms, "b"),
	}
	probs := Check(sparse, 0.95)
	if len(probs) != 1 || !strings.Contains(probs[0], "coverage") {
		t.Errorf("sparse trace check = %v", probs)
	}
}
