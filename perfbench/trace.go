package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"repro/internal/ast"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
)

// span is one timed layer call. Spans of one program pass share Req; a
// child names the span that caused it in Parent (-1 for a root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the current sweep's spans in memory; the last sweep's are
// written out when the benchmark ends. A nil *tracer is the untraced
// path: every method is a no-op that reads no clock.
type tracer struct {
	t0    time.Time
	req   int32
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// reset drops the previous sweep's spans, keeping the traced heap the same
// size from sweep to sweep.
func (t *tracer) reset() {
	if t != nil {
		t.spans = t.spans[:0]
	}
}

// nextReq starts a new program pass; the spans begun until the next call
// share its id.
func (t *tracer) nextReq() {
	if t != nil {
		t.req++
	}
}

func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int32) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// layerTimes sums span durations by name over the sweep, and reports
// as "core.self" the core.Analyze time its matcher children do not cover.
// The sequential engine calls the matcher synchronously, so children never
// overlap and their durations add up exactly.
func (t *tracer) layerTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		out[s.Name] += d
		if s.Parent >= 0 && t.spans[s.Parent].Name == "core.Analyze" {
			out["core.children"] += d
		}
	}
	out["core.self"] = out["core.Analyze"] - out["core.children"]
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedMatcher decorates the cartesian client for the traced run: it
// forwards Name, Match and SelfMatch unchanged and records a child span of
// the enclosing core.Analyze span per call, counting calls and proofs.
type timedMatcher struct {
	inner  *cartesian.Matcher
	tr     *tracer
	parent int32
	calls  int
	proved int
}

func (m *timedMatcher) Name() string { return m.inner.Name() }

func (m *timedMatcher) Match(st *core.State, sender *core.ProcSet, dest ast.Expr, receiver *core.ProcSet, src ast.Expr) (*core.MatchPlan, bool) {
	s := m.tr.begin("cartesian.Match", m.parent)
	plan, ok := m.inner.Match(st, sender, dest, receiver, src)
	m.tr.end(s)
	m.count(ok)
	return plan, ok
}

func (m *timedMatcher) SelfMatch(st *core.State, ps *core.ProcSet, dest, src ast.Expr) bool {
	s := m.tr.begin("cartesian.SelfMatch", m.parent)
	ok := m.inner.SelfMatch(st, ps, dest, src)
	m.tr.end(s)
	m.count(ok)
	return ok
}

func (m *timedMatcher) count(ok bool) {
	m.calls++
	if ok {
		m.proved++
	}
}

var _ core.Matcher = (*timedMatcher)(nil)
