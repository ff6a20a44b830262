package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineAfterFromWithinEvent(t *testing.T) {
	e := NewEngine(1)
	var fired Time
	e.At(100, func() {
		e.After(50, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 150 {
		t.Fatalf("nested After fired at %v, want 150", fired)
	}
}

func TestEnginePastSchedulingClamped(t *testing.T) {
	e := NewEngine(1)
	var fired Time
	e.At(100, func() {
		e.At(10, func() { fired = e.Now() }) // in the past: clamp to now
	})
	e.Run()
	if fired != 100 {
		t.Fatalf("past event fired at %v, want 100 (clamped)", fired)
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(1)
	ran := false
	var tm Timer
	e.ResetAt(&tm, 10, func() { ran = true })
	if !tm.Active() {
		t.Fatal("timer should be active before firing")
	}
	if !tm.Stop() {
		t.Fatal("Stop should succeed on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	e.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if tm.Active() {
		t.Fatal("stopped timer reports active")
	}
}

// TestHeapCompaction is the dead-event regression test: a long run that
// schedules and immediately cancels per-packet RTO-style timers must not
// grow the queue without bound. Stop unlinks the event from its wheel
// slot eagerly, so 1M schedule+cancel cycles leave exactly the live
// events — counted both by the public counter and by walking the wheel's
// internal slots.
func TestHeapCompaction(t *testing.T) {
	e := NewEngine(1)
	const live = 16
	for i := 0; i < live; i++ {
		e.At(Time(1_000_000_000+i), func() {})
	}
	for i := 0; i < 1_000_000; i++ {
		var tm Timer
		e.ResetAfter(&tm, Time(1000+i%777), func() { t.Error("cancelled timer fired") })
		if !tm.Stop() {
			t.Fatal("Stop on fresh timer failed")
		}
		if got := e.Pending(); got != live {
			t.Fatalf("Pending = %d after %d cancels, want %d", got, i+1, live)
		}
	}
	if got := e.q.walkCount(); got != live {
		t.Fatalf("queue holds %d events after 1M cancels, want %d (eager removal)", got, live)
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", e.Pending())
	}
}

// TestPendingCounts pins the live counter across schedule, cancel, and
// execution.
func TestPendingCounts(t *testing.T) {
	e := NewEngine(1)
	if e.Pending() != 0 {
		t.Fatal("fresh engine has pending events")
	}
	var a Timer
	e.ResetAt(&a, 10, func() {})
	e.At(20, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	a.Stop()
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after Stop, want 1", e.Pending())
	}
	a.Stop() // double-stop must not double-decrement
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after double Stop, want 1", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Run, want 0", e.Pending())
	}
}

// TestCompactionPreservesOrder: cancelling interleaved timers mid-heap
// must not change the firing order of survivors (eager removal rebuilds
// heap positions; the (at, seq) total order must survive it).
func TestCompactionPreservesOrder(t *testing.T) {
	const n = 3 * 1024
	e := NewEngine(1)
	var fired []Time
	// Interleave survivors with soon-cancelled timers at equal times so a
	// removal would expose any tie-break (seq) corruption.
	var cancel []*Timer
	for i := 0; i < n; i++ {
		at := Time(100 + i/4)
		if i%4 == 0 {
			at := at
			e.At(at, func() { fired = append(fired, at) })
		} else {
			tm := new(Timer)
			e.ResetAt(tm, at, func() { t.Error("cancelled timer fired") })
			cancel = append(cancel, tm)
		}
	}
	for _, tm := range cancel {
		tm.Stop()
	}
	e.Run()
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("firing order regressed at %d: %v after %v", i, fired[i], fired[i-1])
		}
	}
	if len(fired) != n/4 {
		t.Fatalf("fired %d events, want %d", len(fired), n/4)
	}
}

// TestPooledEventsRecycleSafely: a Timer handle kept across its event's
// recycling (fire → pool → reschedule) must not cancel the new owner.
func TestPooledEventsRecycleSafely(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	var stale Timer
	e.ResetAt(&stale, 10, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	// The pooled event is reused by the next schedule; the stale handle
	// must see a generation mismatch.
	e.At(20, func() { fired++ })
	if stale.Active() {
		t.Fatal("stale handle reports active after recycle")
	}
	if stale.Stop() {
		t.Fatal("stale handle cancelled a recycled event")
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (stale Stop leaked into new event)", fired)
	}
}

// TestResetAfterRearms: ResetAfter re-arms a caller-held timer in place,
// matching Stop+After semantics (last arm wins, one firing).
func TestResetAfterRearms(t *testing.T) {
	e := NewEngine(1)
	var tm Timer
	fired := []int{}
	e.ResetAfter(&tm, 100, func() { fired = append(fired, 1) })
	e.ResetAfter(&tm, 50, func() { fired = append(fired, 2) })
	e.ResetAfter(&tm, 200, func() { fired = append(fired, 3) })
	if !tm.Active() {
		t.Fatal("re-armed timer inactive")
	}
	e.Run()
	if len(fired) != 1 || fired[0] != 3 {
		t.Fatalf("fired = %v, want [3]", fired)
	}
	if e.Now() != 200 {
		t.Fatalf("Now = %v, want 200", e.Now())
	}
	// Re-arming after firing works from the zero state again.
	e.ResetAfter(&tm, 10, func() { fired = append(fired, 4) })
	e.Run()
	if len(fired) != 2 || fired[1] != 4 {
		t.Fatalf("fired = %v, want [3 4]", fired)
	}
}

// TestResetOrderingMatchesStopPlusAfter: a ResetAfter consumes exactly one
// sequence number, so it ties with a plain After scheduled around it the
// same way a Stop+After pair would.
func TestResetOrderingMatchesStopPlusAfter(t *testing.T) {
	run := func(reset bool) []int {
		e := NewEngine(1)
		var got []int
		var tm Timer
		e.ResetAfter(&tm, 5, func() { got = append(got, 0) })
		if reset {
			e.ResetAfter(&tm, 7, func() { got = append(got, 1) })
		} else {
			tm.Stop()
			e.After(7, func() { got = append(got, 1) })
		}
		e.After(7, func() { got = append(got, 2) })
		e.Run()
		return got
	}
	a, b := run(true), run(false)
	if len(a) != 2 || len(b) != 2 || a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("reset ordering %v != stop+after ordering %v", a, b)
	}
}

type countAction struct{ n *int }

func (a *countAction) Run() { *a.n++ }

// TestPostAction schedules interface actions in FIFO order with closures.
func TestPostAction(t *testing.T) {
	e := NewEngine(1)
	n := 0
	act := &countAction{n: &n}
	e.PostAction(10, act)
	e.PostActionAfter(10, act)
	e.At(10, func() {
		if n != 2 {
			t.Errorf("closure ran before actions at same time: n=%d", n)
		}
	})
	e.Run()
	if n != 2 {
		t.Fatalf("actions ran %d times, want 2", n)
	}
}

// TestScheduledCountsCalls pins Scheduled to one per scheduling call:
// every flavor counts, a timer re-arm included, and neither Stop nor
// firing does.
func TestScheduledCountsCalls(t *testing.T) {
	e := NewEngine(1)
	n := 0
	act := &countAction{n: &n}
	fn := func() {}
	var tm Timer
	e.At(10, fn)
	e.After(10, fn)
	e.PostAction(10, act)
	e.PostActionAfter(10, act)
	e.ResetAt(&tm, 20, fn)
	e.ResetAfter(&tm, 30, fn) // re-arm in place
	if got := e.Scheduled(); got != 6 {
		t.Fatalf("Scheduled after six calls = %d", got)
	}
	tm.Stop()
	e.Run()
	if got := e.Scheduled(); got != 6 {
		t.Fatalf("Scheduled after Stop and Run = %d, want 6", got)
	}
}

// TestSchedulingAllocs pins the allocation behavior of the hot scheduling
// paths: pooled events make At/PostAction/ResetAfter allocation-free at
// steady state.
func TestSchedulingAllocs(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	n := 0
	act := &countAction{n: &n}
	var tm Timer
	// Warm the pool.
	for i := 0; i < 64; i++ {
		e.At(e.Now(), fn)
	}
	e.Run()
	if got := testing.AllocsPerRun(1000, func() {
		e.At(e.Now()+1, fn)
		e.PostAction(e.Now()+1, act)
		e.ResetAfter(&tm, 2, fn)
		tm.Stop()
		e.Run()
	}); got > 0 {
		t.Fatalf("steady-state scheduling allocates %.1f objects/op, want 0", got)
	}
}

// deepPendingWindow is the number of churn cycles TestDeepPendingAllocs
// counts allocations over. At deepPending's 100 ns spacing they span
// 20 ms of simulated time, more than one level-3 wheel slot (2^24 ns ≈
// 16.8 ms), so the window crosses a cascade at every level the backlog
// occupies (at most 100 ms, inside level 3).
const deepPendingWindow = 200_000

// TestDeepPendingAllocs pins BenchmarkEngineDeepPending's claim at every
// depth: pop+schedule cycles against a constant backlog reuse pooled
// events and allocate nothing — not even once per cascade.
func TestDeepPendingAllocs(t *testing.T) {
	for _, c := range deepPendingDepths {
		_, churn := deepPending(c.n)
		window := func() {
			for i := 0; i < deepPendingWindow; i++ {
				churn()
			}
		}
		// A single run, so AllocsPerRun's per-run average is the exact
		// count over the window (measured after one warm-up window).
		if got := testing.AllocsPerRun(1, window); got != 0 {
			t.Errorf("%s pending: %d churn cycles allocated %.0f objects, want 0", c.name, deepPendingWindow, got)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10,20 only", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("Now = %v, want deadline 25", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("remaining events lost: %v", fired)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Fatalf("idle RunUntil: Now = %v, want 1000", e.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine(42)
		var log []Time
		var tick func()
		tick = func() {
			log = append(log, e.Now())
			if len(log) < 100 {
				e.After(Time(e.Rand().Intn(1000)+1), tick)
			}
		}
		e.After(0, tick)
		e.Run()
		return log
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDurationConversions(t *testing.T) {
	if (2 * Millisecond).Std() != 2*time.Millisecond {
		t.Fatal("Std conversion wrong")
	}
	if (1500 * Millisecond).Seconds() != 1.5 {
		t.Fatal("Seconds conversion wrong")
	}
	if (2500 * Nanosecond).Micros() != 2.5 {
		t.Fatal("Micros conversion wrong")
	}
}

func TestResourceSerializes(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e)
	var done []Time
	e.At(0, func() {
		r.Acquire(100, func() { done = append(done, e.Now()) })
		r.Acquire(50, func() { done = append(done, e.Now()) })
	})
	e.Run()
	if len(done) != 2 || done[0] != 100 || done[1] != 150 {
		t.Fatalf("completions = %v, want [100 150]", done)
	}
	if r.Busy != 150 {
		t.Fatalf("busy = %v, want 150", r.Busy)
	}
}

func TestResourceIdleGap(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e)
	var second Time
	e.At(0, func() { r.Acquire(10, nil) })
	e.At(100, func() { r.Acquire(10, func() { second = e.Now() }) })
	e.Run()
	if second != 110 {
		t.Fatalf("idle-gap start: completion %v, want 110", second)
	}
}

func TestResourceQueueDelayAndUtilization(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e)
	e.At(0, func() {
		r.Acquire(100, nil)
		if r.QueueDelay() != 100 {
			t.Errorf("QueueDelay = %v, want 100", r.QueueDelay())
		}
	})
	e.RunUntil(200)
	if u := float64(r.Busy) / float64(e.Now()); u != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
}

// Property: regardless of the order Acquire calls are issued within one
// instant, total busy time equals the sum of durations and completions
// never overlap.
func TestResourceBusyConservation(t *testing.T) {
	f := func(durs []uint16) bool {
		e := NewEngine(7)
		r := NewResource(e)
		var total Time
		e.At(0, func() {
			for _, d := range durs {
				total += Time(d)
				r.Acquire(Time(d), nil)
			}
		})
		e.Run()
		return r.Busy == total && r.FreeAt() == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: events always fire in non-decreasing time order even under
// random scheduling patterns.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(3)
		var last Time = -1
		ok := true
		for _, d := range delays {
			e.At(Time(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
