package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	k := New()
	var got []int
	k.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	k.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	k.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	end := k.Run()
	if end != 3*time.Millisecond {
		t.Errorf("Run ended at %v, want 3ms", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	k := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events out of FIFO order: %v", got)
		}
	}
}

func TestNestedSchedule(t *testing.T) {
	k := New()
	var fired []time.Duration
	k.Schedule(time.Second, func() {
		k.Schedule(time.Second, func() {
			fired = append(fired, k.Now())
		})
		fired = append(fired, k.Now())
	})
	k.Run()
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Errorf("fired = %v, want [1s 2s]", fired)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	k := New()
	ran := false
	k.Schedule(-time.Hour, func() { ran = true })
	if end := k.Run(); end != 0 {
		t.Errorf("clock advanced to %v for clamped event", end)
	}
	if !ran {
		t.Error("negative-delay event never ran")
	}
}

func TestRunUntil(t *testing.T) {
	k := New()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		k.Schedule(d, func() { fired = append(fired, d) })
	}
	k.RunUntil(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("after RunUntil(2s): fired %v", fired)
	}
	if k.Now() != 2*time.Second {
		t.Errorf("Now = %v, want 2s", k.Now())
	}
	k.Run()
	if len(fired) != 3 {
		t.Fatalf("after final Run: fired %v", fired)
	}
	if k.Now() != 3*time.Second {
		t.Errorf("final Now = %v, want 3s", k.Now())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	k := New()
	k.RunUntil(5 * time.Second)
	if k.Now() != 5*time.Second {
		t.Errorf("Now = %v, want 5s on empty heap", k.Now())
	}
}

func TestStop(t *testing.T) {
	k := New()
	n := 0
	for i := 0; i < 5; i++ {
		k.Schedule(time.Duration(i)*time.Millisecond, func() {
			n++
			if n == 2 {
				k.Stop()
			}
		})
	}
	k.Run()
	if n != 2 {
		t.Errorf("ran %d events after Stop, want 2", n)
	}
	// Run may be resumed.
	k.Run()
	if n != 5 {
		t.Errorf("total events %d after resumed Run, want 5", n)
	}
}

// TestStopFromProc: a proc's Stop ends the run when that proc parks,
// with no later event dispatched, and a second Run carries on.
func TestStopFromProc(t *testing.T) {
	k := New()
	var log []string
	k.Go("stopper", func(p *Proc) {
		p.Sleep(time.Millisecond)
		k.Stop()
		log = append(log, "stop")
		p.Sleep(time.Millisecond)
		log = append(log, "resumed")
	})
	k.Schedule(500*time.Microsecond, func() { log = append(log, "early") })
	k.Schedule(time.Millisecond+time.Microsecond, func() { log = append(log, "late") })
	if end := k.Run(); end != time.Millisecond {
		t.Errorf("Run stopped at %v, want 1ms", end)
	}
	if want := []string{"early", "stop"}; !reflect.DeepEqual(log, want) {
		t.Errorf("after Stop: log = %v, want %v", log, want)
	}
	k.Run()
	if want := []string{"early", "stop", "late", "resumed"}; !reflect.DeepEqual(log, want) {
		t.Errorf("after second Run: log = %v, want %v", log, want)
	}
}

// TestRunUntilDeadlineMidHandoff: the deadline is reached while a proc
// holds the event loop, in the middle of a producer/consumer exchange.
// RunUntil must stop at the deadline with both procs parked, and a
// second Run must finish the exchange in the same order a single Run
// would.
func TestRunUntilDeadlineMidHandoff(t *testing.T) {
	run := func(split bool) []string {
		k := New()
		q := NewQueue[int](k)
		var log []string
		k.Go("producer", func(p *Proc) {
			for i := 0; i < 3; i++ {
				q.Push(i)
				p.Sleep(time.Second)
			}
		})
		k.Go("consumer", func(p *Proc) {
			for i := 0; i < 3; i++ {
				v := q.Pop(p)
				log = append(log, fmt.Sprintf("%d@%v", v, p.Now()))
			}
		})
		if split {
			k.RunUntil(1500 * time.Millisecond)
			if k.Now() != 1500*time.Millisecond || k.LiveProcs() != 2 || len(log) != 2 {
				t.Errorf("at the deadline: clock %v, %d live procs, log %v; want 1.5s, 2, two items", k.Now(), k.LiveProcs(), log)
			}
		}
		k.Run()
		if k.LiveProcs() != 0 {
			t.Errorf("split=%v: %d procs live after the final Run, want 0", split, k.LiveProcs())
		}
		return log
	}
	whole, split := run(false), run(true)
	if want := []string{"0@0s", "1@1s", "2@2s"}; !reflect.DeepEqual(whole, want) || !reflect.DeepEqual(split, want) {
		t.Errorf("log = %v (one Run), %v (RunUntil then Run); want %v", whole, split, want)
	}
}

// TestKillFromProcUnwindsAtOnce: a proc that kills a parked proc keeps
// running; the victim unwinds — its deferred call running exactly
// once — at the kill instant, before the killer's next wake-up.
func TestKillFromProcUnwindsAtOnce(t *testing.T) {
	k := New()
	q := NewQueue[int](k)
	var log []string
	victim := k.Go("victim", func(p *Proc) {
		defer func() { log = append(log, fmt.Sprintf("unwound@%v", p.Now())) }()
		q.Pop(p)
		log = append(log, "popped")
	})
	k.Go("killer", func(p *Proc) {
		p.Sleep(time.Second)
		victim.Kill()
		log = append(log, "killed")
		p.Sleep(time.Second)
		log = append(log, fmt.Sprintf("killer@%v", p.Now()))
	})
	k.Run()
	if want := []string{"killed", "unwound@1s", "killer@2s"}; !reflect.DeepEqual(log, want) {
		t.Errorf("log = %v, want %v", log, want)
	}
	if !victim.Done() || k.LiveProcs() != 0 {
		t.Errorf("victim done %v, LiveProcs %d; want true, 0", victim.Done(), k.LiveProcs())
	}
}

// TestProcPanicReachesRun: a panicking proc body must surface from Run
// on the caller's goroutine, carrying the original value and the
// proc's name, and leave a kernel that Close still tears down.
func TestProcPanicReachesRun(t *testing.T) {
	k := New()
	q := NewQueue[int](k)
	k.Go("server", func(p *Proc) { q.Pop(p) })
	k.Go("bad", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("boom")
	})
	func() {
		defer func() {
			r := recover()
			pp, ok := r.(procPanic)
			if !ok || pp.proc != "bad" || pp.val != "boom" {
				t.Fatalf("recovered %#v, want procPanic from proc \"bad\" with value boom", r)
			}
			if !strings.Contains(pp.Error(), `sim: proc "bad" panicked: boom`) {
				t.Errorf("message %q lacks the proc name and value", pp.Error())
			}
		}()
		k.Run()
		t.Fatal("Run returned normally")
	}()
	k.Close()
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs after Close = %d, want 0", k.LiveProcs())
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	k := New()
	k.Schedule(time.Second, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Error("ScheduleAt in the past did not panic")
		}
	}()
	k.ScheduleAt(time.Millisecond, func() {})
}

// TestDeterminism runs an identical randomized workload twice and
// requires the dispatch traces to match exactly.
func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		k := New()
		var trace []time.Duration
		var rng uint64 = 12345
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		var spawn func(depth int)
		spawn = func(depth int) {
			if depth > 4 {
				return
			}
			d := time.Duration(next()%1000) * time.Microsecond
			k.Schedule(d, func() {
				trace = append(trace, k.Now())
				spawn(depth + 1)
				spawn(depth + 1)
			})
		}
		spawn(0)
		k.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any set of non-negative delays, Run dispatches them in
// non-decreasing time order and ends the clock at the max delay.
func TestQuickDispatchOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		k := New()
		var seen []time.Duration
		var max time.Duration
		for _, d := range delays {
			dd := time.Duration(d) * time.Microsecond
			if dd > max {
				max = dd
			}
			k.Schedule(dd, func() { seen = append(seen, k.Now()) })
		}
		end := k.Run()
		if len(delays) > 0 && end != max {
			return false
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// BenchmarkKernelEvents measures raw event dispatch throughput.
func BenchmarkKernelEvents(b *testing.B) {
	k := New()
	for i := 0; i < b.N; i++ {
		k.Schedule(time.Duration(i)*time.Microsecond, func() {})
	}
	b.ResetTimer()
	k.Run()
}

// BenchmarkProcSwitch measures the proc-to-proc hand-off: two procs
// yield in turn, so every Yield parks one and resumes the other. (A
// lone proc's Yield takes the Sleep fast path and switches nothing.)
// One op is one hand-off.
func BenchmarkProcSwitch(b *testing.B) {
	k := New()
	for first := 0; first < 2; first++ {
		first := first
		k.Go("switcher", func(p *Proc) {
			for i := first; i < b.N; i += 2 {
				p.Yield()
			}
		})
	}
	b.ResetTimer()
	k.Run()
}

// BenchmarkQueueHandoff measures producer/consumer hand-off cost.
func BenchmarkQueueHandoff(b *testing.B) {
	k := New()
	q := NewQueue[int](k)
	k.Go("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Push(i)
			p.Yield()
		}
	})
	k.Go("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Pop(p)
		}
	})
	b.ResetTimer()
	k.Run()
}
