package sim

import "math/bits"

// This file implements the engine's pending-event structure: a
// Varghese–Lauck hierarchical timing wheel. It replaced the monomorphic
// binary heap when the RTO-dominated timer load of the fabric sweeps
// made the heap's O(log n) sift the dominant cost at depth (hundreds of
// thousands of pending timers at 64+ hosts): schedule, cancel and
// re-arm are all O(1) here, and pop is O(1) amortized.
//
// Geometry. Eight levels of 256 slots at a 1 ns tick. Level k's slot
// index is bits [8k, 8k+8) of the event's absolute timestamp, so a
// level-k slot spans 256^k ticks and eight levels cover all 64 bits:
// every non-negative Time lands in a slot, however far past the cursor.
// The tick is 1 ns — the cost model's finest event spacing is a single
// nanosecond (Time is ns-granular and cost constants go down to
// fractions of a µs), and a coarser tick would bucket distinct
// timestamps into one slot and force a per-slot sort to recover
// (at, seq) pop order. At 1 ns every event in one level-0 slot shares
// the same timestamp, so FIFO slot order *is* (at, seq) order and pop
// needs no comparisons at all.
//
// Determinism. Pop order is the exact (at, seq) total order:
//
//   - Every slot list is seq-sorted at all times. Direct inserts
//     append with a strictly increasing seq; a cascade moves a
//     seq-sorted list, in order, into slots that are provably empty of
//     live events (a level-k slot only ever holds events of the
//     cursor's current level-k+1 window, and the cursor enters a
//     window exactly once).
//   - A level-0 slot's events all share one timestamp (1 ns tick), so
//     its head is the (at, seq) minimum of that instant.
//   - Levels are disjoint in time: level 0 holds only the cursor's
//     current 256 ns window, level 1 the current 64 µs window, and so
//     on — so the first occupied level-0 slot at or after the cursor
//     is the global minimum.
//
// The cursor (pos) only moves forward, never past a pending event, and
// the engine clock never falls behind it, so placement (which compares
// timestamps against pos) is stable: at >= pos for every live event.

const (
	wheelLevels   = 8
	wheelSlotBits = 8
	wheelSlots    = 1 << wheelSlotBits // 256 slots per level
	wheelMask     = wheelSlots - 1
	wheelWords    = wheelSlots / 64 // occupancy-bitmap words per level
)

// maxTime is the unbounded limit for next(): pop uses it, RunUntil
// passes its deadline instead.
const maxTime = Time(1<<63 - 1)

// wslot is one wheel slot: an intrusive doubly-linked FIFO of events.
// The zero value is an empty slot.
type wslot struct {
	head, tail *event
}

// wheel is the engine's pending-event queue. The zero value is an
// empty wheel with its cursor at time zero.
type wheel struct {
	// pos is the cursor: the wheel's notion of "now" for placement.
	// Invariants: pos never decreases, pos <= every pending event's
	// timestamp, and pos <= the engine clock whenever user code runs.
	pos Time
	// count is the number of pending events.
	count int
	// bits[l] is level l's slot-occupancy bitmap; scan() finds the next
	// occupied slot in a handful of word operations instead of a walk.
	bits  [wheelLevels][wheelWords]uint64
	slots [wheelLevels][wheelSlots]wslot
}

// add inserts a filled-in event. O(1).
func (q *wheel) add(ev *event) {
	q.count++
	q.place(ev)
}

// place routes ev to the level whose windows distinguish ev.at from the
// cursor: the highest bit in which the two timestamps differ names the
// coarsest level at which they fall in different slots (an event at the
// cursor itself, with no differing bit, goes to level 0). Requires
// ev.at >= q.pos.
func (q *wheel) place(ev *event) {
	level := (bits.Len64(uint64(ev.at^q.pos)) - 1) / wheelSlotBits
	idx := int(ev.at>>(level*wheelSlotBits)) & wheelMask
	s := &q.slots[level][idx]
	if s.head == nil {
		q.bits[level][idx>>6] |= 1 << (idx & 63)
	}
	ev.level, ev.idx = uint8(level), uint8(idx)
	ev.prev, ev.next = s.tail, nil
	if s.tail != nil {
		s.tail.next = ev
	} else {
		s.head = ev
	}
	s.tail = ev
}

// remove unlinks a pending event in O(1) (Timer.Stop's per-packet
// cancel path) and clears its slot's occupancy bit if the list empties.
func (q *wheel) remove(ev *event) {
	s := &q.slots[ev.level][ev.idx]
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		s.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	} else {
		s.tail = ev.prev
	}
	if s.head == nil {
		q.bits[ev.level][ev.idx>>6] &^= 1 << (ev.idx & 63)
	}
	ev.prev, ev.next = nil, nil
	q.count--
}

// scan returns the lowest occupied slot index >= from at the given
// level, or -1.
func (q *wheel) scan(level, from int) int {
	if from >= wheelSlots {
		return -1
	}
	w := from >> 6
	word := q.bits[level][w] &^ (1<<(from&63) - 1)
	for {
		if word != 0 {
			return w<<6 | bits.TrailingZeros64(word)
		}
		w++
		if w == wheelWords {
			return -1
		}
		word = q.bits[level][w]
	}
}

// next returns the earliest pending event without removing it, or nil
// if none has a timestamp <= limit. It advances the cursor toward that
// event, cascading higher-level slots as boundaries are crossed; the
// cursor never moves past limit, so a bounded probe (RunUntil's
// deadline) leaves placement sound for events scheduled after it.
// Amortized O(1): each event cascades at most wheelLevels-1 times over
// its lifetime.
//
//smt:hotroot
func (q *wheel) next(limit Time) *event {
	if q.count == 0 {
		return nil
	}
	for {
		pos := q.pos
		// Level 0 first: any occupied slot at or after the cursor in
		// the current 256 ns window is the global minimum.
		if s := q.scan(0, int(pos)&wheelMask); s >= 0 {
			at := pos&^Time(wheelMask) | Time(s)
			if at > limit {
				return nil
			}
			q.pos = at
			return q.slots[0][s].head
		}
		// Level 0 exhausted: advance to the next occupied slot of the
		// finest non-empty level, cascade it down, and rescan. The
		// current slot (index pos>>shift) is always already empty —
		// its events were cascaded when the cursor entered it.
		l, s := 1, -1
		for ; l < wheelLevels; l++ {
			if s = q.scan(l, int(pos>>(l*wheelSlotBits))&wheelMask+1); s >= 0 {
				break
			}
		}
		if s < 0 {
			return nil // unreachable while count > 0: every event is in a slot
		}
		// The slot's window start: pos's bits above this level, then s.
		// At level 7 the mask's shift is 64, which Go defines as 0, so
		// the mask clears every bit of pos.
		shift := l * wheelSlotBits
		w := pos&^(Time(1)<<(shift+wheelSlotBits)-1) | Time(s)<<shift
		if w > limit {
			return nil
		}
		q.pos = w
		q.cascade(l, s)
	}
}

// cascade empties a higher-level slot, re-placing its events (in list
// order, preserving seq order) at finer levels relative to the
// just-advanced cursor. The destination slots are necessarily below
// this level, so this terminates.
//
//smt:hotroot
func (q *wheel) cascade(level, idx int) {
	s := &q.slots[level][idx]
	ev := s.head
	s.head, s.tail = nil, nil
	q.bits[level][idx>>6] &^= 1 << (idx & 63)
	for ev != nil {
		n := ev.next
		q.place(ev)
		ev = n
	}
}

// pop removes and returns the earliest pending event, or nil.
//
//smt:hotroot
func (q *wheel) pop() *event {
	ev := q.next(maxTime)
	if ev != nil {
		q.remove(ev)
	}
	return ev
}
