package sim

import (
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count is back at base, so a
// proc goroutine that has handed control back but not yet exited does
// not read as a leak.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after Close, want baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseUnwindsParkedProcs leaves procs parked on each blocking
// primitive and checks that Close unwinds every one: each body's
// deferred call runs exactly once, no proc stays live, no goroutine
// outlives the kernel, and a second Close changes nothing.
func TestCloseUnwindsParkedProcs(t *testing.T) {
	cases := []struct {
		name   string
		procs  int // procs whose bodies defer a counter
		launch bool
		build  func(k *Kernel, body func(p *Proc, block func()))
		run    func(k *Kernel)
	}{
		{
			name: "queue", procs: 2, launch: true,
			build: func(k *Kernel, body func(*Proc, func())) {
				q := NewQueue[int](k)
				for i := 0; i < 2; i++ {
					k.Go("popper", func(p *Proc) { body(p, func() { q.Pop(p) }) })
				}
			},
			run: func(k *Kernel) { k.Run() },
		},
		{
			name: "resource", procs: 2, launch: true,
			build: func(k *Kernel, body func(*Proc, func())) {
				r := NewResource(k, "m.cpu", 1)
				g := NewGate(k)
				// The holder keeps the unit and waits; the second proc
				// queues behind it in Acquire.
				k.Go("holder", func(p *Proc) {
					body(p, func() {
						r.Acquire(p)
						defer r.Release()
						g.Wait(p)
					})
				})
				k.Go("waiter", func(p *Proc) { body(p, func() { r.Acquire(p) }) })
			},
			run: func(k *Kernel) { k.Run() },
		},
		{
			name: "gate", procs: 3, launch: true,
			build: func(k *Kernel, body func(*Proc, func())) {
				g := NewGate(k)
				for i := 0; i < 3; i++ {
					k.Go("waiter", func(p *Proc) { body(p, func() { g.Wait(p) }) })
				}
			},
			run: func(k *Kernel) { k.Run() },
		},
		{
			name: "sleep-past-deadline", procs: 1, launch: true,
			build: func(k *Kernel, body func(*Proc, func())) {
				k.Go("sleeper", func(p *Proc) { body(p, func() { p.Sleep(time.Hour) }) })
			},
			run: func(k *Kernel) { k.RunUntil(time.Second) },
		},
		{
			// The deadline falls while a proc runs the event loop, in
			// the middle of a producer/consumer exchange.
			name: "deadline-mid-handoff", procs: 2, launch: true,
			build: func(k *Kernel, body func(*Proc, func())) {
				q := NewQueue[int](k)
				k.Go("producer", func(p *Proc) {
					body(p, func() {
						q.Push(0)
						p.Sleep(time.Hour)
					})
				})
				k.Go("consumer", func(p *Proc) {
					body(p, func() {
						q.Pop(p)
						q.Pop(p)
					})
				})
			},
			run: func(k *Kernel) { k.RunUntil(time.Second) },
		},
		{
			name: "never-launched", procs: 1, launch: false,
			build: func(k *Kernel, body func(*Proc, func())) {
				k.Go("unstarted", func(p *Proc) { body(p, func() {}) })
			},
			run: func(k *Kernel) {},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			k := New()
			started, unwound, finished := 0, 0, 0
			tc.build(k, func(p *Proc, block func()) {
				started++
				defer func() { unwound++ }()
				block()
				finished++
			})
			tc.run(k)
			if k.LiveProcs() != tc.procs {
				t.Fatalf("LiveProcs before Close = %d, want %d", k.LiveProcs(), tc.procs)
			}
			if tc.launch && started != tc.procs {
				t.Fatalf("%d bodies started before Close, want %d", started, tc.procs)
			}
			k.Close()
			want := 0
			if tc.launch {
				want = tc.procs
			}
			if unwound != want || started != want {
				t.Errorf("after Close: %d bodies started, %d deferred calls ran; want %d each", started, unwound, want)
			}
			if finished != 0 {
				t.Errorf("%d bodies ran past their blocking call, want 0", finished)
			}
			if k.LiveProcs() != 0 {
				t.Errorf("LiveProcs after Close = %d, want 0", k.LiveProcs())
			}
			if !k.Idle() {
				t.Error("events still pending after Close")
			}
			waitGoroutines(t, base)

			k.Close()
			if unwound != want || k.LiveProcs() != 0 {
				t.Errorf("second Close: %d deferred calls, LiveProcs %d; want %d, 0", unwound, k.LiveProcs(), want)
			}
		})
	}
}

// TestCloseAfterKill covers a proc killed while parked whose unwind
// event never ran: Close must unwind it once, not twice.
func TestCloseAfterKill(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New()
	unwound := 0
	q := NewQueue[int](k)
	p := k.Go("victim", func(p *Proc) {
		defer func() { unwound++ }()
		q.Pop(p)
	})
	k.Run()
	p.Kill()
	k.Close()
	if unwound != 1 || !p.Done() || k.LiveProcs() != 0 {
		t.Errorf("unwound %d times, done %v, LiveProcs %d; want 1, true, 0", unwound, p.Done(), k.LiveProcs())
	}
	waitGoroutines(t, base)
}

// TestCloseKeepsClock checks that Close leaves the reporting surface —
// the clock and the dispatched-event count — as Run left it.
func TestCloseKeepsClock(t *testing.T) {
	k := New()
	g := NewGate(k)
	k.Go("w", func(p *Proc) {
		p.Sleep(3 * time.Second)
		g.Wait(p)
	})
	k.Run()
	now, ran := k.Now(), k.EventsRun()
	k.Close()
	if k.Now() != now || k.EventsRun() != ran {
		t.Errorf("Close moved clock %v->%v, events %d->%d", now, k.Now(), ran, k.EventsRun())
	}
}

// TestCloseFromProcPanics pins the context rule: a proc cannot tear
// down the kernel it runs on.
func TestCloseFromProcPanics(t *testing.T) {
	k := New()
	var got any
	k.Go("suicidal", func(p *Proc) {
		defer func() { got = recover() }()
		k.Close()
	})
	k.Run()
	if got == nil {
		t.Fatal("Close from proc context did not panic")
	}
	k.Close()
}

// TestClusterCloseUnwindsLanes runs a two-lane cluster whose procs end
// parked on their lanes and checks that Cluster.Close unwinds them all.
func TestClusterCloseUnwindsLanes(t *testing.T) {
	base := runtime.NumGoroutine()
	c := NewCluster(2, time.Millisecond)
	unwound := 0
	for i := 0; i < 2; i++ {
		k := c.Lane(i)
		q := NewQueue[int](k)
		k.Go("server", func(p *Proc) {
			defer func() { unwound++ }()
			for {
				q.Pop(p)
			}
		})
		other := 1 - i
		c.Send(i, other, time.Millisecond, func() {})
	}
	c.Run(2)
	ran := c.EventsRun()
	c.Close()
	if unwound != 2 || c.Lane(0).LiveProcs()+c.Lane(1).LiveProcs() != 0 {
		t.Errorf("unwound %d lane procs, %d still live; want 2, 0", unwound, c.Lane(0).LiveProcs()+c.Lane(1).LiveProcs())
	}
	if c.EventsRun() != ran {
		t.Errorf("EventsRun moved %d->%d across Close", ran, c.EventsRun())
	}
	waitGoroutines(t, base)
	c.Close()
}
