package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightRecorderWraparound(t *testing.T) {
	r := NewFlightRecorder(16)
	r.SetClock(func() time.Duration { return 0 })
	for i := 0; i < 40; i++ {
		r.Record("step", 1, fmt.Sprintf("k%d", i), "")
	}
	if got := r.Total(); got != 40 {
		t.Fatalf("Total = %d, want 40", got)
	}
	evs := r.Snapshot()
	if len(evs) != 16 {
		t.Fatalf("snapshot kept %d events, want capacity 16", len(evs))
	}
	// The survivors are exactly the last 16 records, oldest first, with
	// their original sequence numbers.
	for i, ev := range evs {
		wantSeq := uint64(24 + i)
		if ev.Seq != wantSeq {
			t.Fatalf("event %d: seq %d, want %d", i, ev.Seq, wantSeq)
		}
		if wantKey := fmt.Sprintf("k%d", wantSeq); ev.Key != wantKey {
			t.Fatalf("event %d: key %q, want %q", i, ev.Key, wantKey)
		}
	}
}

func TestFlightRecorderPartialFill(t *testing.T) {
	r := NewFlightRecorder(16)
	for i := 0; i < 5; i++ {
		r.Record("commit", 0, "", "")
	}
	evs := r.Snapshot()
	if len(evs) != 5 {
		t.Fatalf("snapshot kept %d events, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d: seq %d", i, ev.Seq)
		}
	}
}

func TestFlightRecorderDumpDeterminism(t *testing.T) {
	r := NewFlightRecorder(16)
	r.SetClock(func() time.Duration { return 42 * time.Nanosecond })
	for i := 0; i < 30; i++ {
		r.Record("dequeue", 3, "key", "d")
	}
	var a, b bytes.Buffer
	if err := r.Dump(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("two dumps of an idle recorder differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != 16 {
		t.Fatalf("dump has %d lines, want 16", len(lines))
	}
	var prev uint64
	for i, ln := range lines {
		var ev FlightEvent
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if i > 0 && ev.Seq != prev+1 {
			t.Fatalf("line %d: seq %d after %d (want gapless ascending)", i, ev.Seq, prev)
		}
		if ev.AtNs != 42 || ev.Kind != "dequeue" || ev.Job != 3 || ev.Key != "key" {
			t.Fatalf("line %d: unexpected event %+v", i, ev)
		}
		prev = ev.Seq
	}
}

// TestFlightRecorderConcurrent hammers Record from several goroutines while
// snapshots run; with -race this is the recorder's thread-safety gate. The
// invariant checked: every snapshot is gapless ascending and bounded by the
// capacity.
func TestFlightRecorderConcurrent(t *testing.T) {
	r := NewFlightRecorder(64)
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				r.Record("step", g, "k", "")
			}
		}(g)
	}
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			evs := r.Snapshot()
			if len(evs) > 64 {
				t.Errorf("snapshot exceeds capacity: %d", len(evs))
				return
			}
			for i := 1; i < len(evs); i++ {
				if evs[i].Seq != evs[i-1].Seq+1 {
					t.Errorf("snapshot not gapless: seq %d after %d", evs[i].Seq, evs[i-1].Seq)
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-snapDone
	if r.Total() != 2000 {
		t.Fatalf("Total = %d, want 2000", r.Total())
	}
}

// TestFlightRecorderNilFree pins the disabled contract: recording through a
// nil recorder allocates nothing.
func TestFlightRecorderNilFree(t *testing.T) {
	var r *FlightRecorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record("step", 1, "key", "")
	})
	if allocs != 0 {
		t.Fatalf("nil FlightRecorder.Record allocates %.1f/op, want 0", allocs)
	}
	if r.Snapshot() != nil || r.Total() != 0 || r.Cap() != 0 {
		t.Fatal("nil recorder accessors not inert")
	}
	if err := r.Dump(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}
