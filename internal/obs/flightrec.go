package obs

// The flight recorder is the engine's crash/stall black box: a bounded
// ring buffer of recent scheduler, step and commit events, recorded
// continuously at low cost and dumped only when something goes wrong (the
// stall watchdog fires, or the step budget aborts a run). Unlike the span
// tracer — which retains everything and is sized for offline analysis —
// the recorder keeps a fixed window of the most recent events, so it can
// stay armed for the whole lifetime of a long-running service.

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// FlightEvent is one recorded engine event. Seq is a global, gapless
// sequence number (wraparound drops the oldest events but never reorders
// or renumbers survivors); AtNs is nanoseconds since the recorder was
// created.
type FlightEvent struct {
	Seq    uint64 `json:"seq"`
	AtNs   int64  `json:"at_ns"`
	Kind   string `json:"kind"` // step, giveup, stall, dump, ...
	Job    int    `json:"job"`
	Key    string `json:"key,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// FlightRecorder is a fixed-capacity ring buffer of FlightEvents, safe for
// concurrent use. The nil recorder is valid and free: Record on nil is a
// no-op, so engine call sites need no enable flag.
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []FlightEvent // ring storage, len == cap once full
	next  uint64        // next sequence number == total events recorded
	epoch time.Time
	clock func() time.Duration // injectable for deterministic tests
}

// NewFlightRecorder returns a recorder keeping the most recent `capacity`
// events (<= 0 selects 4096; the floor is 16).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = 4096
	}
	if capacity < 16 {
		capacity = 16
	}
	r := &FlightRecorder{buf: make([]FlightEvent, 0, capacity), epoch: time.Now()}
	r.clock = func() time.Duration { return time.Since(r.epoch) }
	return r
}

// SetClock replaces the recorder's time source (nanosecond offsets from an
// arbitrary origin). Test hook; call before recording.
func (r *FlightRecorder) SetClock(clock func() time.Duration) { r.clock = clock }

// Record appends one event, evicting the oldest when the ring is full.
// No-op on a nil recorder.
func (r *FlightRecorder) Record(kind string, job int, key, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	ev := FlightEvent{Seq: r.next, AtNs: int64(r.clock()), Kind: kind,
		Job: job, Key: key, Detail: detail}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next%uint64(cap(r.buf))] = ev
	}
	r.next++
	r.mu.Unlock()
}

// Total reports how many events were ever recorded (including evicted
// ones).
func (r *FlightRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Cap reports the ring capacity.
func (r *FlightRecorder) Cap() int {
	if r == nil {
		return 0
	}
	return cap(r.buf)
}

// Snapshot returns the retained events oldest-first. The result is a copy:
// concurrent recording cannot mutate it.
func (r *FlightRecorder) Snapshot() []FlightEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FlightEvent, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		out = append(out, r.buf...)
		return out
	}
	// Full ring: the oldest event sits at the next write position.
	head := int(r.next % uint64(cap(r.buf)))
	out = append(out, r.buf[head:]...)
	out = append(out, r.buf[:head]...)
	return out
}

// Dump writes the retained events as JSON lines, oldest first, in a single
// w.Write call (so dumps from concurrent analyses sharing one file do not
// interleave mid-line). Dumping does not drain the ring.
func (r *FlightRecorder) Dump(w io.Writer) error {
	if r == nil {
		return nil
	}
	evs := r.Snapshot()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for i := range evs {
		if err := enc.Encode(&evs[i]); err != nil {
			return err
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}
