// Package sim provides a deterministic discrete-event simulation kernel.
//
// All performance experiments in this repository run in virtual time on top
// of this engine: protocol state machines schedule closures at absolute or
// relative virtual times, and the engine executes them in (time, insertion)
// order. Because execution is single-goroutine and the random source is
// seeded, every run is exactly reproducible, independent of the Go
// scheduler and garbage collector.
//
// The kernel is allocation-free at steady state: event structs are pooled
// on a per-engine free list, cancelled events are unlinked from the
// timing wheel eagerly (so heavy reschedulers never accumulate dead
// ballast), and the scheduling API has three flavors so hot paths never
// allocate:
//
//   - At/After schedule fire-and-forget closures with no handle;
//   - PostAction/PostActionAfter schedule an Action interface value, for
//     callers that pool their own callback state instead of building a
//     closure per event;
//   - ResetAt/ResetAfter arm or re-arm a caller-held Timer in place, the
//     time.AfterFunc-style path for every event that may be cancelled
//     (per-packet RTO rescheduling among them).
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of the
// simulation. It intentionally mirrors time.Duration's resolution so cost
// constants can be written as time.Duration literals.
type Time int64

// Common virtual-time unit conversions.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Std converts a virtual timestamp or interval back to a time.Duration.
func (t Time) Std() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the timestamp using time.Duration notation.
func (t Time) String() string { return time.Duration(t).String() }

// Action is a pooled alternative to a closure: callers that schedule the
// same logical callback per packet implement Run on a struct they recycle
// themselves, and the engine stores the interface value (a pointer — no
// allocation) instead of a fresh closure.
type Action interface {
	Run()
}

// event is a scheduled callback. Events are engine-owned: they are taken
// from the per-engine free list when scheduled and recycled when they
// fire, are stopped, or are found dead. gen guards stale Timer handles
// against acting on a recycled event.
//
// A pending event is threaded into one timing-wheel slot's intrusive
// list: prev/next are the links, and level/idx name the slot so an O(1)
// unlink can find it (and its occupancy bit) again.
type event struct {
	at         Time
	seq        uint64 // tie-break: FIFO among equal timestamps
	fn         func()
	act        Action // non-nil alternative to fn
	prev, next *event // intrusive wheel-slot links
	gen        uint64 // bumped on every recycle
	level, idx uint8  // wheel slot coordinates while pending
}

// Timer is a handle to a scheduled event that can be cancelled or
// re-armed. The zero Timer is valid and inert; engines arm it through
// ResetAt/ResetAfter. A Timer must only ever be used with one engine.
type Timer struct {
	eng *Engine
	ev  *event
	gen uint64
}

// Stop cancels the timer. It reports whether the call prevented the event
// from firing (false if it already fired or was already stopped). The
// event is unlinked from its wheel slot immediately — O(1) — so heavy
// reschedulers (per-packet RTO timers) leave no dead ballast behind.
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil || t.ev.gen != t.gen {
		return false
	}
	ev := t.ev
	t.ev = nil
	t.eng.q.remove(ev)
	t.eng.recycle(ev)
	return true
}

// Active reports whether the timer is still pending.
func (t *Timer) Active() bool { return t != nil && t.ev != nil && t.ev.gen == t.gen }

// Engine is the discrete-event executor. It is not safe for concurrent use;
// the whole simulation runs on one goroutine by design.
type Engine struct {
	now  Time
	seq  uint64
	q    wheel
	free []*event // recycled events; single-goroutine, no sync needed
	rng  *rand.Rand
}

// NewEngine returns an engine whose clock starts at zero and whose random
// source is seeded with seed (use a fixed seed for reproducible runs).
func NewEngine(seed int64) *Engine {
	//smt:allow determinism -- the engine RNG: seeded by the caller, this IS the deterministic randomness source
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// maxFreeEvents caps the event free list. A burst (an incast fan-in, a
// chaos ×10 storm) can spike the pending-event count far above the
// steady-state working set; without a cap the free list grows to that
// high-water mark and pins the memory for the rest of the run. Events
// recycled into a full list are dropped for the GC to take. 8192 is
// comfortably above the steady-state churn depth of the largest default
// world, so the cap never costs an allocation outside genuine bursts.
const maxFreeEvents = 8192

// recycle returns a finished or cancelled event to the free list. The
// generation bump invalidates any Timer still pointing at it.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.act = nil
	ev.gen++
	if len(e.free) < maxFreeEvents {
		e.free = append(e.free, ev)
	}
}

// schedule takes an event from the free list (or allocates the pool's
// next entry), fills it in, and pushes it. Every public scheduling call
// consumes exactly one sequence number, so the (time, seq) tie-break
// order is identical across the At/PostAction/Reset flavors.
func (e *Engine) schedule(at Time, fn func(), act Action) *event {
	if at < e.now {
		at = e.now
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		//smt:coldpath -- event free-list refill; steady state reuses pooled events
		ev = &event{}
	}
	ev.at = at
	ev.seq = e.seq
	ev.fn = fn
	ev.act = act
	e.seq++
	e.q.add(ev)
	return ev
}

// At schedules fn to run at absolute virtual time at, with no
// cancellation handle (arm a caller-held Timer with ResetAt for one).
// Scheduling in the past (or present) runs the event at the current
// time, after already pending events with the same timestamp.
func (e *Engine) At(at Time, fn func()) {
	if fn == nil {
		//smt:allow panic -- scheduling a nil callback can only be a programming error; it would fire as a crash later anyway
		panic("sim: nil event func")
	}
	e.schedule(at, fn, nil)
}

// After schedules fn to run d nanoseconds of virtual time from now.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// PostAction schedules a.Run() at absolute time at with no handle. The
// interface value is stored directly, so pooled callback structs cross
// the scheduler without allocating.
func (e *Engine) PostAction(at Time, a Action) {
	if a == nil {
		//smt:allow panic -- scheduling a nil action can only be a programming error; it would fire as a crash later anyway
		panic("sim: nil action")
	}
	e.schedule(at, nil, a)
}

// PostActionAfter schedules a.Run() d nanoseconds from now.
func (e *Engine) PostActionAfter(d Time, a Action) {
	if d < 0 {
		d = 0
	}
	e.PostAction(e.now+d, a)
}

// ResetAt re-arms the caller-held timer t to run fn at absolute time at,
// cancelling any pending schedule first — the time.AfterFunc-style path.
// An active timer's pooled event is reused in place (unlink, update,
// re-place — O(1)), so per-packet rescheduling allocates nothing. Like
// every scheduling call it consumes one sequence number, so a Stop plus
// a fresh ResetAt and a ResetAt in place produce identical event
// ordering.
func (e *Engine) ResetAt(t *Timer, at Time, fn func()) {
	if fn == nil {
		//smt:allow panic -- scheduling a nil callback can only be a programming error; it would fire as a crash later anyway
		panic("sim: nil event func")
	}
	if at < e.now {
		at = e.now
	}
	if t.ev != nil && t.ev.gen == t.gen {
		if t.eng != e {
			//smt:allow panic -- cross-engine re-arm corrupts both event queues; no sane recovery exists
			panic("sim: Timer re-armed on a different engine")
		}
		ev := t.ev
		e.q.remove(ev)
		ev.at = at
		ev.seq = e.seq
		ev.fn = fn
		ev.act = nil
		e.seq++
		e.q.add(ev)
		return
	}
	ev := e.schedule(at, fn, nil)
	t.eng = e
	t.ev = ev
	t.gen = ev.gen
}

// ResetAfter re-arms t to run fn d nanoseconds from now.
func (e *Engine) ResetAfter(t *Timer, d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.ResetAt(t, e.now+d, fn)
}

// Scheduled reports how many scheduling calls the engine has taken:
// one per At, After, PostAction, PostActionAfter, ResetAt and
// ResetAfter, timer re-arms included. It is the (time, seq) tie-break's
// sequence counter, so it costs no state of its own.
func (e *Engine) Scheduled() uint64 { return e.seq }

// Pending reports the number of scheduled (non-cancelled) events, O(1).
// Cancelled events are removed eagerly, so this is exactly the queue size.
func (e *Engine) Pending() int { return e.q.count }

// fire advances the clock to ev and executes it. The event must already
// be removed from the queue.
func (e *Engine) fire(ev *event) {
	if ev.at < e.now {
		//smt:allow panic -- a backwards clock invalidates every subsequent measurement; the run must die, not mislabel results
		panic(fmt.Sprintf("sim: time went backwards: %v < %v", ev.at, e.now))
	}
	e.now = ev.at
	fn, act := ev.fn, ev.act
	e.recycle(ev)
	if act != nil {
		act.Run()
	} else {
		fn()
	}
}

// step executes the earliest pending event. It reports false when no
// events remain.
func (e *Engine) step() bool {
	ev := e.q.pop()
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// Run executes events until the queue drains. It returns the final
// virtual time.
func (e *Engine) Run() Time {
	for e.step() {
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline. Events scheduled
// beyond the deadline remain pending; the clock is advanced to deadline if
// the simulation had not yet reached it. The bounded probe never moves
// the wheel cursor past the deadline, so events scheduled afterwards
// always land at or ahead of it.
func (e *Engine) RunUntil(deadline Time) Time {
	for ev := e.q.next(deadline); ev != nil; ev = e.q.next(deadline) {
		e.q.remove(ev)
		e.fire(ev)
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}
