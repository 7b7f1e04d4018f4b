package core

// workQueue orders the ids of configurations awaiting (re)visits. The
// engine guarantees an id is enqueued at most once at a time (the
// worklist's classic "in work" set), so implementations never see
// duplicates.
type workQueue interface {
	push(id uint64)
	pop() (uint64, bool)
	size() int
}

// ringQueue is a FIFO over a slice with an explicit head index. Popping
// advances the head instead of re-slicing, so the backing array's popped
// prefix does not accumulate for the lifetime of the analysis (the old
// `work = work[1:]` loop retained every key string ever queued); once the
// dead prefix dominates the backing array it is compacted away.
type ringQueue struct {
	buf  []uint64
	head int
}

func (q *ringQueue) push(id uint64) {
	if q.head > 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, id)
}

func (q *ringQueue) pop() (uint64, bool) {
	if q.head == len(q.buf) {
		return 0, false
	}
	id := q.buf[q.head]
	q.head++
	return id, true
}

func (q *ringQueue) size() int { return len(q.buf) - q.head }

// lifoQueue is a stack: depth-first exploration of the configuration
// space. Reaches fixpoints on loop bodies before exploring siblings.
type lifoQueue struct {
	buf []uint64
}

func (q *lifoQueue) push(id uint64) { q.buf = append(q.buf, id) }

func (q *lifoQueue) pop() (uint64, bool) {
	if len(q.buf) == 0 {
		return 0, false
	}
	id := q.buf[len(q.buf)-1]
	q.buf = q.buf[:len(q.buf)-1]
	return id, true
}

func (q *lifoQueue) size() int { return len(q.buf) }

// newQueue builds the queue backend for a schedule name (validated by
// Options.schedule).
func newQueue(schedule string) workQueue {
	if schedule == ScheduleLIFO {
		return &lifoQueue{}
	}
	return &ringQueue{}
}
