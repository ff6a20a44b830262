package sim

import (
	"container/heap"
	"testing"
)

// This file holds the wheel's differential oracle: a deliberately boring
// container/heap event queue with the engine's exact (at, seq) ordering
// and clamping semantics. FuzzTimerOrder runs random scheduling programs
// against both and demands identical observable behavior at every step;
// the deep-pending benchmarks reuse it as the heap baseline the wheel is
// measured against.

// refEvent is one pending event in the reference queue.
type refEvent struct {
	at  Time
	seq uint64
	fn  func()
	idx int // heap index, -1 once popped or stopped
}

// refHeap implements container/heap.Interface with the (at, seq) order.
type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old) - 1
	ev := old[n]
	old[n] = nil
	ev.idx = -1
	*h = old[:n]
	return ev
}

// refEngine mirrors Engine's scheduling semantics on the reference heap:
// past-time clamping, one sequence number per scheduling call, in-place
// re-arm, eager removal on stop.
type refEngine struct {
	now Time
	seq uint64
	h   refHeap
}

func (r *refEngine) schedule(at Time, fn func()) *refEvent {
	if at < r.now {
		at = r.now
	}
	ev := &refEvent{at: at, seq: r.seq, fn: fn}
	r.seq++
	heap.Push(&r.h, ev)
	return ev
}

func (r *refEngine) stop(ev *refEvent) bool {
	if ev == nil || ev.idx < 0 {
		return false
	}
	heap.Remove(&r.h, ev.idx)
	ev.idx = -1
	return true
}

func (r *refEngine) resetAt(ev *refEvent, at Time, fn func()) *refEvent {
	if at < r.now {
		at = r.now
	}
	if ev != nil && ev.idx >= 0 {
		ev.at = at
		ev.seq = r.seq
		ev.fn = fn
		r.seq++
		heap.Fix(&r.h, ev.idx)
		return ev
	}
	return r.schedule(at, fn)
}

func (r *refEngine) step() bool {
	if len(r.h) == 0 {
		return false
	}
	ev := heap.Pop(&r.h).(*refEvent)
	r.now = ev.at
	ev.fn()
	return true
}

func (r *refEngine) run() Time {
	for r.step() {
	}
	return r.now
}

func (r *refEngine) runUntil(deadline Time) Time {
	for len(r.h) > 0 && r.h[0].at <= deadline {
		r.step()
	}
	if r.now < deadline {
		r.now = deadline
	}
	return r.now
}

// fuzzDelta decodes a 3-byte mantissa + shift into a time delta spanning
// every wheel level: shifts up to 39 bits put timestamps anywhere from
// the current level-0 window to level 7 (bits 56–62). The delta is
// clamped so now+delta never passes maxTime, keeping both the engine's
// and the reference's timestamps inside int64.
func fuzzDelta(b0, b1, b2, sh byte, now Time) Time {
	d := Time(uint64(b0)|uint64(b1)<<8|uint64(b2)<<16) << (sh % 40)
	if d > maxTime-now {
		d = maxTime - now
	}
	return d
}

// FuzzTimerOrder is the wheel's differential fuzzer: it decodes the
// input as a program of schedule/Stop/ResetAt/RunUntil ops, executes it
// simultaneously against the real engine and the container/heap
// reference above, and asserts identical pop sequence, clock, Pending
// count, and Stop outcomes at every step. The op stream uses 6-byte
// records:
//
//	byte 0: opcode (mod 5: schedule, stop, reset, runUntil, drain)
//	byte 1: timer slot selector (8 caller-held slots)
//	bytes 2-4: delta mantissa
//	byte 5: delta shift (exponential, covers all eight levels)
func FuzzTimerOrder(f *testing.F) {
	// Seeds: one op of each kind on slot 0 with a mid-wheel delta, a
	// stop/reset storm, a level-7 program near the end of Time, and
	// bounded probes interleaved with schedules.
	f.Add([]byte{0, 0, 100, 0, 0, 4})
	f.Add([]byte{
		0, 0, 1, 2, 3, 8,
		0, 1, 200, 0, 0, 16,
		2, 0, 50, 0, 0, 12,
		1, 1, 0, 0, 0, 0,
		3, 0, 0, 4, 0, 10,
		4, 0, 0, 0, 0, 0,
	})
	f.Add([]byte{
		0, 0, 255, 255, 255, 39, // level-7 resident
		0, 1, 255, 255, 255, 39, // second, same level-7 slot
		2, 0, 1, 0, 0, 26, // re-arm slot 0 closer
		3, 0, 255, 255, 0, 18, // probe partway
	})
	f.Add([]byte{
		0, 0, 10, 0, 0, 0,
		3, 0, 5, 0, 0, 0,
		0, 1, 10, 0, 0, 0,
		3, 0, 20, 0, 0, 0,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		e := NewEngine(1)
		r := &refEngine{}
		var eTimers [8]*Timer
		var rTimers [8]*refEvent
		var eLog, rLog []int
		nextID := 0

		check := func(op string) {
			if e.Pending() != len(r.h) {
				t.Fatalf("%s: Pending %d, reference %d", op, e.Pending(), len(r.h))
			}
			if e.Now() != r.now {
				t.Fatalf("%s: clock %v, reference %v", op, e.Now(), r.now)
			}
			if len(eLog) != len(rLog) {
				t.Fatalf("%s: popped %d events, reference %d", op, len(eLog), len(rLog))
			}
			for i := range eLog {
				if eLog[i] != rLog[i] {
					t.Fatalf("%s: pop %d is event %d, reference %d", op, i, eLog[i], rLog[i])
				}
			}
		}

		for len(data) >= 6 {
			op, slot := data[0]%5, int(data[1]%8)
			d := fuzzDelta(data[2], data[3], data[4], data[5], e.Now())
			data = data[6:]
			switch op {
			case 0: // schedule into a slot (handle kept for stop/reset)
				id := nextID
				nextID++
				eTimers[slot] = new(Timer)
				e.ResetAfter(eTimers[slot], d, func() { eLog = append(eLog, id) })
				rTimers[slot] = r.schedule(r.now+d, func() { rLog = append(rLog, id) })
				check("schedule")
			case 1: // stop
				got := eTimers[slot].Stop()
				want := r.stop(rTimers[slot])
				if got != want {
					t.Fatalf("Stop on slot %d: %v, reference %v", slot, got, want)
				}
				check("stop")
			case 2: // re-arm in place
				id := nextID
				nextID++
				if eTimers[slot] == nil {
					eTimers[slot] = &Timer{}
				}
				e.ResetAfter(eTimers[slot], d, func() { eLog = append(eLog, id) })
				rTimers[slot] = r.resetAt(rTimers[slot], r.now+d, func() { rLog = append(rLog, id) })
				check("reset")
			case 3: // bounded run
				e.RunUntil(e.Now() + d)
				r.runUntil(r.now + d)
				check("runUntil")
			case 4: // full drain
				e.Run()
				r.run()
				check("run")
			}
		}
		e.Run()
		r.run()
		check("final drain")
	})
}
