package sim

import (
	"fmt"
	"runtime/debug"
	"time"
)

// Proc is a sequential simulated process. Its body runs on a dedicated
// goroutine, but the kernel guarantees that at most one proc goroutine
// executes at any real instant: a proc runs until it blocks on a kernel
// primitive (Sleep, Queue.Pop, Resource.Acquire, ...) and only then does
// the kernel dispatch the next event — on the same goroutine, until an
// event wakes a proc (see the package comment). This gives
// straight-line, blocking-style OS code with fully deterministic
// interleaving.
type Proc struct {
	k      *Kernel
	name   string
	resume chan struct{}
	killed bool
	done   bool

	// body is the function the goroutine runs, held until launch.
	body func(p *Proc)

	// launched is set once the start event has spun up the goroutine.
	launched bool

	// prev and next link the proc into its kernel's list of unfinished
	// procs, which Close walks.
	prev, next *Proc

	// unparkFn is p.unpark bound once at creation, so the Sleep and
	// UnparkExternal hot paths schedule it without allocating a fresh
	// method-value closure per wake-up.
	unparkFn func()
}

// killSignal is panicked inside a proc goroutine to unwind it when the
// proc has been killed while parked.
type killSignal struct{ p *Proc }

// procPanic carries a panic out of a proc body to Run's caller, which
// re-raises it on another goroutine: it keeps the original value, the
// proc's name and the stack where the body panicked.
type procPanic struct {
	proc  string
	val   any
	stack []byte
}

func (e procPanic) Error() string {
	return fmt.Sprintf("sim: proc %q panicked: %v\n\n%s", e.proc, e.val, e.stack)
}

// Go starts fn as a new simulated process at the current virtual time.
// The returned Proc may be used immediately (e.g. passed to Kill), but
// fn itself begins executing when the start event is dispatched.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	if fn == nil {
		panic("sim: Go with nil function")
	}
	p := &Proc{k: k, name: name, resume: make(chan struct{}), body: fn}
	p.unparkFn = p.unpark
	k.link(p)
	k.Schedule(0, p.unparkFn)
	return p
}

// run is the proc goroutine, started when the baton first passes to p.
// Once the body returns, is killed, or panics, the goroutine dispatches
// on until it can pass the baton on, and exits.
func (p *Proc) run() {
	k := p.k
	defer func() {
		if r := recover(); r != nil {
			if ks, ok := r.(killSignal); !ok || ks.p != p {
				k.fail(procPanic{proc: p.name, val: r, stack: debug.Stack()})
			}
		}
		p.finish()
		k.cur = nil
		k.switchFrom(nil)
	}()
	k.cur = p
	body := p.body
	p.body = nil
	body(p)
}

func (p *Proc) finish() {
	p.done = true
	p.k.unlink(p)
}

// park gives up the processor and blocks until unparked, dispatching
// events on this goroutine meanwhile (see Kernel.switchFrom). It must
// be called from the proc's own goroutine.
func (p *Proc) park() {
	if p.k.cur != p {
		panic(fmt.Sprintf("sim: proc %q parking while not current", p.name))
	}
	p.k.cur = nil
	if !p.k.switchFrom(p) {
		<-p.resume
	}
	if p.killed {
		panic(killSignal{p})
	}
	p.k.cur = p
}

// unpark runs in event context. It is both the start event and every
// wake-up: it records p as the proc to pass the baton to once the event
// returns. A proc killed before it ever ran is finished in place.
func (p *Proc) unpark() {
	if p.done {
		return
	}
	if p.killed && !p.launched {
		p.finish()
		return
	}
	p.k.wake = p
	p.k.leave = true
}

// Name reports the name the proc was created with.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this proc belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now reports the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// Done reports whether the proc body has returned.
func (p *Proc) Done() bool { return p.done }

// Sleep blocks the proc for d of virtual time. Zero and negative
// durations yield the processor for one event-queue round trip, which
// still provides a deterministic scheduling point.
//
// Fast path: when every queued event is strictly later than the wake
// time, the wake event would be dispatched immediately after parking
// with nothing running in between, so Sleep just advances the clock in
// place, elides the wake event, and counts it in SleepsElided; observable
// ordering is unchanged because no other event could have interleaved.
// The path also applies under a RunUntil deadline as long as the wake
// time does not overshoot it (RunUntil dispatches events at exactly the
// deadline, so waking at k.deadline in place is equivalent); cluster
// lanes run entirely inside RunUntil windows and would otherwise lose
// the fast path for every sleep.
func (p *Proc) Sleep(d time.Duration) {
	k := p.k
	if d < 0 {
		d = 0
	}
	if (!k.hasDL || k.now+d <= k.deadline) && !k.leave && k.nowq.empty() && (len(k.events.h) == 0 || k.events.h[0].at > k.now+d) {
		if k.cur != p {
			panic(fmt.Sprintf("sim: proc %q sleeping while not current", p.name))
		}
		k.now += d
		k.elided++
		return
	}
	k.Schedule(d, p.unparkFn)
	p.park()
}

// Yield reschedules the proc at the current instant, letting any other
// events queued for this time run first.
func (p *Proc) Yield() { p.Sleep(0) }

// Kill marks the proc dead. If it is parked it unwinds the next time it
// would resume; if it is live on the event heap its pending resumption
// turns into the unwind. Killing a finished proc is a no-op. Kill may be
// called from kernel or proc context (but not on oneself).
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	if p.k.cur == p {
		panic("sim: proc killing itself; return from the body instead")
	}
	p.killed = true
	// If the proc is parked waiting on some queue/resource, nothing will
	// resume it unless we do. A spurious resume for a proc that was
	// about to be resumed anyway is harmless: unpark on a done proc is a
	// no-op, and killSignal unwinds exactly once.
	p.k.Schedule(0, p.unparkFn)
}

// Park blocks the proc until some other party calls UnparkExternal. It
// is a low-level escape hatch used by higher-level primitives (Queue,
// Resource, Gate) in this package and by tests.
func (p *Proc) Park() { p.park() }

// UnparkExternal schedules the proc to resume at the current virtual
// time. It must pair with a Park.
func (p *Proc) UnparkExternal() {
	p.k.Schedule(0, p.unparkFn)
}
