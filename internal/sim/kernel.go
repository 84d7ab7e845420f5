// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and an event heap. Higher layers
// model operating-system activity in one of two styles:
//
//   - callbacks scheduled at a virtual time (Kernel.Schedule), and
//   - sequential processes (Proc) that run as goroutines but are
//     interleaved cooperatively, exactly one at a time, so that a whole
//     simulation is deterministic and race-free by construction.
//
// Events at the same virtual time fire in scheduling order (FIFO), which
// makes every run of a simulation bit-for-bit reproducible.
//
// The event loop runs on whichever goroutine holds the baton: the one
// blocked in Run, or the proc goroutine that last parked or finished.
// A proc that parks does not hand control back to Run's caller; it
// dispatches the following events itself, running callbacks inline,
// until an event wakes a proc. If that is the proc that parked, it
// simply carries on; otherwise the baton passes to the woken proc with
// a single channel send. Only when the run ends does the baton return
// to the goroutine blocked in Run. Each proc resume therefore costs at
// most one goroutine switch.
//
// A Kernel and everything scheduled on it belong to one goroutine (plus
// the proc goroutines it interleaves); kernels are cheap, so concurrent
// simulations each get their own Kernel rather than sharing one.
package sim

import (
	"fmt"
	"strings"
	"time"

	"accentmig/internal/obs"
)

// Kernel is a discrete-event simulation executive. The zero value is not
// usable; create kernels with New.
type Kernel struct {
	now    time.Duration
	seq    uint64
	events eventHeap
	nowq   nowRing // zero-delay events for the current instant

	// back returns the baton to the goroutine blocked in Run (or in
	// Close) once the run ends on a proc goroutine. Only one goroutine
	// holds the baton at a time, so a single unbuffered channel
	// suffices.
	back chan struct{}

	// leave makes the dispatch loop return after the current event. An
	// event that resumes or starts a proc sets it together with wake,
	// the proc to pass the baton to; without a wake it ends the run:
	// Stop, a fault, and Close (no run in progress) set it so. Sharing
	// the one flag the loop tests anyway keeps callback-only dispatch
	// at a single check per event. While a proc runs, leave is set only
	// by a pending Stop.
	leave bool
	wake  *Proc

	// fault is a panic caught on a proc goroutine, from a proc body or
	// from a callback dispatched there; Run re-raises it on its
	// caller's goroutine.
	fault any

	cur      *Proc // proc currently executing, nil in callback context
	live     int   // procs started and not yet finished
	procs    *Proc // head of the intrusive list of unfinished procs
	ran      uint64
	elided   uint64 // sleeps that took the same-instant fast path
	deadline time.Duration
	hasDL    bool

	sink    obs.Sink
	evSeq   uint64
	traceID uint64
}

// New returns an empty kernel with the clock at zero.
func New() *Kernel {
	return &Kernel{back: make(chan struct{})}
}

// Now reports the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// EventsRun reports how many events have been dispatched so far. It is
// useful in tests as a cheap progress/forward-motion check. Sleeps that
// take the same-instant fast path (see Proc.Sleep) advance the clock
// without dispatching an event, so this undercounts wake-ups by
// SleepsElided.
func (k *Kernel) EventsRun() uint64 { return k.ran }

// SleepsElided reports how many Proc.Sleep calls took the same-instant
// fast path, waking in place instead of through a dispatched event.
// EventsRun plus SleepsElided counts every wake-up, so it is the same
// for a simulation however its procs' sleeps happened to be elided.
func (k *Kernel) SleepsElided() uint64 { return k.elided }

// SetSink installs (or with nil removes) the flight-recorder sink.
// Every emission point in the simulation stack is guarded by Tracing,
// so a nil sink costs one pointer comparison on the hot path.
func (k *Kernel) SetSink(s obs.Sink) { k.sink = s }

// Tracing reports whether a flight-recorder sink is installed. Callers
// with any per-event assembly cost (WireBytes sums, name splits) should
// check it before building the event.
func (k *Kernel) Tracing() bool { return k.sink != nil }

// Emit stamps ev with the current virtual time and a sequence number
// and delivers it to the sink, if any.
func (k *Kernel) Emit(ev obs.Event) { k.EmitAt(k.now, ev) }

// EmitAt is Emit with an explicit timestamp, for events reconstructed
// after the fact (e.g. phase spans known only once an ack arrives).
func (k *Kernel) EmitAt(t time.Duration, ev obs.Event) {
	if k.sink == nil {
		return
	}
	ev.T = t
	ev.Seq = k.evSeq
	k.evSeq++
	k.sink.Emit(ev)
}

// NextTraceID hands out a fresh nonzero correlation id for flight-
// recorder events that must be matched up across emission points (one
// logical IPC message's send and receive, however many hops apart).
// Ids are per-kernel and deterministic; callers only mint them when
// tracing, so untraced runs never touch the counter.
func (k *Kernel) NextTraceID() uint64 {
	k.traceID++
	return k.traceID
}

// machineOf derives the owning machine from a dotted component name
// ("src.cpu" -> "src"); names with no dot have no machine.
func machineOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return ""
}

// Schedule arranges for fn to run at Now()+d in kernel (callback)
// context. A negative delay is treated as zero. Events scheduled for the
// same instant run in the order they were scheduled.
//
// Zero-delay events — every wake-up, unpark, and queue hand-off in the
// simulation — bypass the heap entirely and land on a FIFO ring for the
// current instant. This is safe because a heap entry with at == now can
// only have been pushed before the clock reached now (push requires
// d > 0), i.e. it precedes every ring entry in scheduling order; the
// dispatch loop therefore drains heap entries at the current instant
// first, then the ring, which is exactly FIFO scheduling order.
func (k *Kernel) Schedule(d time.Duration, fn func()) {
	if fn == nil {
		panic("sim: Schedule with nil function")
	}
	if d <= 0 {
		k.nowq.push(fn)
		return
	}
	k.events.push(event{at: k.now + d, seq: k.seq, fn: fn})
	k.seq++
}

// ScheduleAt arranges for fn to run at absolute virtual time t, which
// must not be in the past.
func (k *Kernel) ScheduleAt(t time.Duration, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%v) in the past (now %v)", t, k.now))
	}
	k.Schedule(t-k.now, fn)
}

// Stop makes Run return after the currently dispatching event completes
// or, when called from a proc, once that proc parks or finishes.
func (k *Kernel) Stop() { k.leave = true }

// Run dispatches events until the event heap is empty, the deadline set
// by RunUntil is reached, or Stop is called. It returns the virtual time
// at which it stopped. Procs that are still blocked when the heap drains
// stay parked — an idle operating system, whose servers wait for
// requests that will never come — until Close unwinds them.
//
// The first event that wakes a proc takes the baton (see the package
// comment) off the calling goroutine, which then waits for the run to
// end. A panic on a proc goroutine, from a proc body or a callback
// dispatched there, ends the run and is re-raised here.
func (k *Kernel) Run() time.Duration {
	if k.cur != nil {
		panic("sim: Run called from proc context")
	}
	k.leave = false
	if p := k.dispatch(); p != nil {
		k.pass(p)
		k.wait()
	}
	return k.now
}

// dispatch runs events on the calling goroutine, which holds the baton,
// until one wakes a proc, which it returns, or the run ends, when it
// returns nil.
func (k *Kernel) dispatch() *Proc {
	for !k.leave {
		// Heap entries already due fire before the now-ring: they were
		// scheduled before the clock reached this instant, so they are
		// earlier in FIFO order than any ring entry (see Schedule).
		if len(k.events.h) > 0 && k.events.h[0].at == k.now {
			e := k.events.pop()
			k.ran++
			e.fn()
			continue
		}
		if fn := k.nowq.pop(); fn != nil {
			k.ran++
			fn()
			continue
		}
		if len(k.events.h) == 0 {
			break
		}
		if k.hasDL && k.events.h[0].at > k.deadline {
			// Leave it queued; a later RunUntil may want it.
			k.now = k.deadline
			break
		}
		e := k.events.pop()
		k.now = e.at
		k.ran++
		e.fn()
	}
	if p := k.wake; p != nil {
		k.wake = nil
		k.leave = false
		return p
	}
	k.hasDL = false
	return nil
}

// pass hands the baton to p: it starts p's goroutine on first launch,
// or resumes it where it parked.
func (k *Kernel) pass(p *Proc) {
	if p.launched {
		p.resume <- struct{}{}
		return
	}
	p.launched = true
	go p.run()
}

// switchFrom is called on the goroutine holding the baton when its
// proc, self, parks — or, with self nil, finishes. It dispatches events
// until one wakes a proc and passes the baton there; once the run has
// ended the baton goes back to the goroutine waiting in Run or Close.
// It reports whether self is the proc woken, in which case the caller
// simply carries on.
func (k *Kernel) switchFrom(self *Proc) bool {
	switch next := k.dispatchOnProc(); next {
	case nil:
		k.back <- struct{}{}
	case self:
		return true
	default:
		k.pass(next)
	}
	return false
}

// dispatchOnProc is dispatch on a proc goroutine. A callback that
// panics there must not unwind the proc's own body, so the panic ends
// the run as its fault, which Run re-raises on its caller's goroutine.
func (k *Kernel) dispatchOnProc() (next *Proc) {
	defer func() {
		if r := recover(); r != nil {
			k.fail(r)
			next = nil
		}
	}()
	return k.dispatch()
}

// fail records r as the fault that ends the current run.
func (k *Kernel) fail(r any) {
	k.fault = r
	k.leave = true
}

// wait blocks the goroutine in Run or Close until the baton comes back,
// then re-raises the fault, if any, that ended the run.
func (k *Kernel) wait() {
	<-k.back
	if r := k.fault; r != nil {
		k.fault = nil
		panic(r)
	}
}

// RunUntil dispatches events with timestamps up to and including t and
// then returns, leaving later events queued and advancing the clock to t
// if the heap drained early. It is the basis for incremental inspection
// of a simulation (e.g. sampling a byte-rate series).
func (k *Kernel) RunUntil(t time.Duration) time.Duration {
	if t < k.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) in the past (now %v)", t, k.now))
	}
	k.deadline = t
	k.hasDL = true
	k.Run()
	if k.now < t {
		k.now = t
	}
	return k.now
}

// Idle reports whether no events are pending.
func (k *Kernel) Idle() bool { return len(k.events.h) == 0 && k.nowq.empty() }

// NextEventAt reports the virtual time of the earliest pending event and
// whether one exists. Ring entries are due at the current instant, so a
// non-empty now-ring reports Now(). The cluster scheduler uses this to
// pick each conservative window's start without disturbing the queues.
func (k *Kernel) NextEventAt() (time.Duration, bool) {
	if !k.nowq.empty() {
		return k.now, true
	}
	if len(k.events.h) == 0 {
		return 0, false
	}
	return k.events.h[0].at, true
}

// LiveProcs reports the number of procs that have been started and have
// not yet returned. A nonzero value with an idle heap means those procs
// are parked with nothing left to wake them (e.g. servers waiting for
// requests), which is the normal end state of an OS simulation; Close
// unwinds them and brings the count to zero.
func (k *Kernel) LiveProcs() int { return k.live }

// Close tears the simulation down once its results have been read.
// Every unfinished proc is killed: one whose goroutine is parked is
// resumed and unwinds its body through the same path as Kill, running
// its deferred calls once; one whose start event never ran is simply
// finished. The pending events are then dropped. Afterwards no proc
// goroutine of this kernel remains and the kernel references nothing
// the simulation built, so the whole simulated system can be
// collected. The clock and the event count are kept for reporting.
//
// Close panics if called from proc context. A second call finds nothing
// to unwind and is a no-op.
func (k *Kernel) Close() {
	if k.cur != nil {
		panic("sim: Close called from proc context")
	}
	// No run is in progress, so each unwinding proc must hand the baton
	// straight back here instead of dispatching.
	k.leave = true
	// Unwinding runs deferred calls, which may start procs of their
	// own; those are linked at the head and finished in turn.
	for p := k.procs; p != nil; p = k.procs {
		p.killed = true
		if p.launched {
			p.resume <- struct{}{}
			k.wait()
		} else {
			p.finish()
		}
	}
	k.events = eventHeap{}
	k.nowq = nowRing{}
}

// link adds p to the unfinished-proc list.
func (k *Kernel) link(p *Proc) {
	k.live++
	p.next = k.procs
	if k.procs != nil {
		k.procs.prev = p
	}
	k.procs = p
}

// unlink removes a finished p from the unfinished-proc list.
func (k *Kernel) unlink(p *Proc) {
	k.live--
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		k.procs = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	}
	p.prev, p.next = nil, nil
}

// nowRing is a head-indexed FIFO ring of zero-delay events for the
// current instant. The same-instant case dominates dispatch (every
// unpark, queue hand-off, and gate open is a zero-delay event), and a
// ring turns each of those from an O(log n) heap sift into an append
// and an indexed read. The backing array is reused once drained, so
// steady-state traffic allocates nothing.
type nowRing struct {
	fns  []func()
	head int
}

func (r *nowRing) push(fn func()) { r.fns = append(r.fns, fn) }

func (r *nowRing) empty() bool { return r.head == len(r.fns) }

// pop removes and returns the head entry, or nil if the ring is empty.
func (r *nowRing) pop() func() {
	if r.head == len(r.fns) {
		return nil
	}
	fn := r.fns[r.head]
	r.fns[r.head] = nil // release the closure to the GC
	r.head++
	if r.head == len(r.fns) {
		r.fns = r.fns[:0]
		r.head = 0
	}
	return fn
}

// event is a single heap entry, stored by value: scheduling allocates
// nothing beyond the amortized growth of the heap's backing array.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// eventHeap is an index-based 4-ary min-heap ordered by (at, seq). A
// 4-ary layout halves the tree depth of a binary heap, so sift-down —
// the cost that dominates pop — touches fewer cache lines, and the
// by-value storage avoids both the per-event allocation and the
// interface boxing that container/heap would impose on this hot path.
type eventHeap struct {
	h []event
}

// before orders events by time, then by scheduling order.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (eh *eventHeap) push(e event) {
	h := append(eh.h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	eh.h = h
}

func (eh *eventHeap) pop() event {
	h := eh.h
	min := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the closure to the GC
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			if c+4 <= n {
				// All four children exist (the overwhelmingly common
				// case on a full level): unrolled min scan with the
				// bounds known, sparing the inner loop's per-iteration
				// compare against end.
				if h[c+1].before(&h[m]) {
					m = c + 1
				}
				if h[c+2].before(&h[m]) {
					m = c + 2
				}
				if h[c+3].before(&h[m]) {
					m = c + 3
				}
			} else {
				for j := c + 1; j < n; j++ {
					if h[j].before(&h[m]) {
						m = j
					}
				}
			}
			if !h[m].before(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	eh.h = h
	return min
}
