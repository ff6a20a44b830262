package sim

import "testing"

// BenchmarkEngineScheduleCancel measures the per-packet RTO pattern:
// re-arm a caller-held timer, then cancel it. Allocs/op must be 0 at
// steady state (pooled events, in-place re-arm).
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	var tm Timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ResetAfter(&tm, Time(1000+i%777), fn)
		tm.Stop()
	}
}

// BenchmarkEngineScheduleRun measures the fire-and-forget path: schedule
// one event and drain it.
func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, fn)
		e.Run()
	}
}

// BenchmarkEngineDeepHeap measures schedule+pop against a queue holding
// many pending events (the loadsweep regime).
func BenchmarkEngineDeepHeap(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 4096; i++ {
		e.At(Time(1_000_000_000+i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%1000), fn)
		e.step()
	}
}

// deepPendingDepths are the backlog sizes the wheel-vs-heap comparison
// runs at. 1M pending timers is the RTO regime a 256-host world implies.
var deepPendingDepths = []struct {
	name string
	n    int
}{{"10k", 10_000}, {"100k", 100_000}, {"1M", 1_000_000}}

// deepPending returns an engine holding n events spread over a horizon
// (~100 ns between events) and its churn cycle: pop the earliest event,
// then schedule a replacement at the back — the self-sustaining pattern
// that holds depth and spacing constant indefinitely. One cycle has
// already run, so the free list's backing array exists and steady state
// allocates nothing.
func deepPending(n int) (*Engine, func()) {
	e := NewEngine(1)
	fn := func() {}
	horizon := Time(n) * 100
	for i := 0; i < n; i++ {
		e.At(horizon*Time(i)/Time(n), fn)
	}
	churn := func() {
		e.step()
		e.After(horizon, fn)
	}
	churn()
	return e, churn
}

// BenchmarkEngineDeepPending measures steady-state timer churn at a
// constant backlog; one op is one pop+schedule cycle. Allocs/op must be
// 0 (pooled events); TestDeepPendingAllocs pins that.
func BenchmarkEngineDeepPending(b *testing.B) {
	for _, c := range deepPendingDepths {
		b.Run(c.name, func(b *testing.B) {
			e, churn := deepPending(c.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				churn()
			}
			b.StopTimer()
			if e.Pending() != c.n {
				b.Fatalf("depth drifted: %d pending, want %d", e.Pending(), c.n)
			}
		})
	}
}

// BenchmarkHeapDeepPending runs the identical churn against the
// container/heap reference queue (fuzz_test.go) — the baseline the
// wheel's speedup is measured from. CI requires the wheel to be at
// least 5x faster at 1M pending.
func BenchmarkHeapDeepPending(b *testing.B) {
	for _, c := range deepPendingDepths {
		b.Run(c.name, func(b *testing.B) {
			r := &refEngine{}
			fn := func() {}
			horizon := Time(c.n) * 100
			for i := 0; i < c.n; i++ {
				r.schedule(horizon*Time(i)/Time(c.n), fn)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.step()
				r.schedule(r.now+horizon, fn)
			}
			b.StopTimer()
			if len(r.h) != c.n {
				b.Fatalf("depth drifted: %d pending, want %d", len(r.h), c.n)
			}
		})
	}
}
