package sim

import (
	"math/bits"
	"math/rand"
	"testing"
)

// walkCount counts live events the slow way — walking every slot list —
// so tests can cross-check the O(1) counter and the occupancy bitmaps
// against ground truth.
func (q *wheel) walkCount() int {
	n := 0
	for l := range q.slots {
		for i := range q.slots[l] {
			s := &q.slots[l][i]
			occupied := q.bits[l][i>>6]&(1<<(i&63)) != 0
			if (s.head != nil) != occupied {
				panic("sim: slot occupancy bit out of sync with list")
			}
			for ev := s.head; ev != nil; ev = ev.next {
				n++
			}
		}
	}
	return n
}

// TestWheelLevelPlacement schedules one event on each of the eight
// wheel levels, the last 12 µs short of the end of Time, and checks
// each occupies one slot of its own level and they pop in timestamp
// order with the clock landing exactly on each.
func TestWheelLevelPlacement(t *testing.T) {
	e := NewEngine(1)
	ats := []Time{
		3,                // level 0: same 256 ns window as the cursor
		1 << 10,          // level 1
		1 << 20,          // level 2
		1 << 28,          // level 3
		1 << 36,          // level 4
		1 << 44,          // level 5
		1 << 52,          // level 6
		maxTime - 12_345, // level 7: the top bits of the clock
	}
	var got []Time
	for _, at := range ats {
		at := at
		e.At(at, func() { got = append(got, e.Now()) })
	}
	for l := range e.q.bits {
		occupied := 0
		for _, w := range e.q.bits[l] {
			occupied += bits.OnesCount64(w)
		}
		if occupied != 1 {
			t.Fatalf("level %d has %d occupied slots, want 1", l, occupied)
		}
	}
	e.Run()
	if len(got) != len(ats) {
		t.Fatalf("ran %d events, want %d", len(got), len(ats))
	}
	for i, at := range ats {
		if got[i] != at {
			t.Fatalf("event %d fired at %v, want %v", i, got[i], at)
		}
	}
}

// TestWheelSameSlotFIFO pins the determinism contract at its sharpest
// point: events with the identical timestamp run in scheduling order,
// including events that reach the level-0 slot via different routes
// (direct insert vs. cascade down from level 4).
func TestWheelSameSlotFIFO(t *testing.T) {
	e := NewEngine(1)
	const at = 1<<32 + 4242 // far enough to start life on level 4
	var got []int
	mark := func(i int) func() { return func() { got = append(got, i) } }
	e.At(at, mark(0))     // level-4 resident
	e.At(at, mark(1))     // level-4 resident, later seq
	e.After(1, func() {}) // a near event so the probe below has work
	e.At(at-1, mark(2))   // neighbor timestamp, must run first
	e.At(at, mark(3))     // same instant again
	// Probe just short of the events: cascades them from level 4 down
	// to level 0 without firing anything.
	e.RunUntil(at - 100)
	e.At(at, mark(4)) // direct level-0 insert into the already-filled slot
	e.Run()
	want := []int{2, 0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

// TestWheelRunUntilBoundary checks that a bounded run never disturbs
// events beyond the deadline: the probe must not advance the cursor past
// it, and an event scheduled relative to the post-probe clock must still
// sort correctly against older pending events.
func TestWheelRunUntilBoundary(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	e.At(5_000_000, func() { got = append(got, e.Now()) })
	// Probe to a deadline far short of the pending event, crossing many
	// level boundaries the cursor must not run past.
	if now := e.RunUntil(4_000_000); now != 4_000_000 {
		t.Fatalf("RunUntil returned %v, want 4ms", now)
	}
	if e.q.pos > 4_000_000 {
		t.Fatalf("cursor %v ran past the 4ms deadline", e.q.pos)
	}
	// Scheduling after the probe: must interleave correctly with the
	// older event.
	e.After(500_000, func() { got = append(got, e.Now()) }) // 4.5 ms
	e.Run()
	if len(got) != 2 || got[0] != 4_500_000 || got[1] != 5_000_000 {
		t.Fatalf("pop times %v, want [4.5ms 5ms]", got)
	}
}

// TestWheelChurnMatchesCounter hammers schedule/Stop/ResetAfter across
// all levels and cross-checks Pending, the bitmap/list consistency, and
// the final drain order being non-decreasing in time.
func TestWheelChurnMatchesCounter(t *testing.T) {
	e := NewEngine(7)
	rng := rand.New(rand.NewSource(42))
	// delay spreads a 24-bit mantissa over shifts 0–38, so timestamps
	// reach every level up to 2^62 ns without nearing the end of Time.
	delay := func() Time { return Time(rng.Int63n(1<<24)) << rng.Intn(39) }
	var timers []*Timer
	for i := 0; i < 20_000; i++ {
		switch rng.Intn(4) {
		case 0:
			tm := new(Timer)
			e.ResetAfter(tm, delay(), func() {})
			timers = append(timers, tm)
		case 1:
			if len(timers) > 0 {
				j := rng.Intn(len(timers))
				timers[j].Stop()
			}
		case 2:
			if len(timers) > 0 {
				j := rng.Intn(len(timers))
				e.ResetAfter(timers[j], delay(), func() {})
			}
		case 3:
			e.RunUntil(e.Now() + Time(rng.Int63n(1<<20)))
		}
		if got, want := e.q.walkCount(), e.Pending(); got != want {
			t.Fatalf("step %d: walked %d events, counter says %d", i, got, want)
		}
	}
	last := Time(-1)
	for e.Pending() > 0 {
		if !e.step() {
			t.Fatal("step reported empty with events pending")
		}
		if e.Now() < last {
			t.Fatalf("time went backwards: %v after %v", e.Now(), last)
		}
		last = e.Now()
	}
}

// TestFreeListBounded pins the free-list cap: a burst of far more
// simultaneous events than maxFreeEvents must not pin the whole burst's
// memory after it drains.
func TestFreeListBounded(t *testing.T) {
	e := NewEngine(1)
	const burst = 3 * maxFreeEvents
	for i := 0; i < burst; i++ {
		e.After(Time(i%1000), func() {})
	}
	e.Run()
	if len(e.free) > maxFreeEvents {
		t.Fatalf("free list holds %d events after burst, cap is %d", len(e.free), maxFreeEvents)
	}
	if len(e.free) != maxFreeEvents {
		t.Fatalf("free list holds %d events after a %d-event burst, want the full cap %d", len(e.free), burst, maxFreeEvents)
	}
}
