package idmap

import (
	"math"
	"slices"
	"testing"
)

// check compares m with the reference map ref: length, every reference
// entry, the key dump, and the probe invariant backward-shift deletion
// keeps: no empty slot lies between a key's home slot and its slot.
func check(t *testing.T, m *Map[uint32], ref map[uint64]uint32) {
	t.Helper()
	if m.Len() != len(ref) {
		t.Fatalf("Len = %d, reference holds %d", m.Len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := m.Get(k); !ok || got != want {
			t.Fatalf("Get(%#x) = %d, %v; want %d, true", k, got, ok, want)
		}
	}
	var keys, want []uint64
	for k, v := range m.All() {
		keys = append(keys, k)
		if ref[k] != v {
			t.Fatalf("All yields %#x = %d; reference holds %d", k, v, ref[k])
		}
	}
	for k := range ref {
		want = append(want, k)
	}
	slices.Sort(keys)
	slices.Sort(want)
	if !slices.Equal(keys, want) {
		t.Fatalf("key dump %#x, want %#x", keys, want)
	}
	mask := len(m.keys) - 1
	for i, k := range m.keys {
		if k == 0 {
			continue
		}
		for j := m.home(k); j != i; j = (j + 1) & mask {
			if m.keys[j] == 0 {
				t.Fatalf("key %#x in slot %d is cut off from its home slot %d by empty slot %d", k, i, m.home(k), j)
			}
		}
	}
}

// fuzzKey draws a key from one of four classes chosen by sel's top two
// bits: a tiny range (0 included), multiples of the table sizes a
// small map passes through, the top of the key space, and keys that
// differ only in their high bits. Small tables fill and wrap their probe
// chains around the array end in every class.
func fuzzKey(sel byte) uint64 {
	x := uint64(sel & 15)
	switch sel >> 6 {
	case 0:
		return x
	case 1:
		return x << (3 + (sel>>4)&3) // multiples of 8, 16, 32, 64
	case 2:
		return math.MaxUint64 - x
	default:
		return uint64(sel&63) << 58
	}
}

// FuzzIDMap runs an op stream against a Go map reference. Each op is
// two bytes: the operation and the key selector.
func FuzzIDMap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 1, 3, 0})
	f.Add([]byte{0, 0x41, 0, 0x51, 0, 0x61, 0, 0x71, 2, 0x41, 1, 0x71, 3, 0})
	f.Add([]byte{0, 0x80, 0, 0x81, 0, 0x8f, 4, 0x80, 2, 0x8f, 1, 0x81})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Map[uint32]
		ref := make(map[uint64]uint32)
		var stamp uint32
		for ; len(data) >= 2; data = data[2:] {
			k := fuzzKey(data[1])
			switch data[0] % 5 {
			case 0: // Put
				stamp++
				m.Put(k, stamp)
				ref[k] = stamp
			case 1: // Get
				got, ok := m.Get(k)
				want, wantOK := ref[k]
				if got != want || ok != wantOK || m.Has(k) != wantOK {
					t.Fatalf("Get(%#x) = %d, %v; want %d, %v", k, got, ok, want, wantOK)
				}
			case 2: // Delete
				got, ok := m.Delete(k)
				want, wantOK := ref[k]
				delete(ref, k)
				if got != want || ok != wantOK {
					t.Fatalf("Delete(%#x) = %d, %v; want %d, %v", k, got, ok, want, wantOK)
				}
			case 3: // Len and key dump
				check(t, &m, ref)
			case 4: // Ref as m[k]++
				*m.Ref(k)++
				ref[k]++
			}
		}
		check(t, &m, ref)
	})
}

// TestDeleteAcrossArrayEnd builds a probe cluster that starts in the
// last slot and wraps to the front, then deletes from its head: the
// backward shift must carry the wrapped entries across the array end.
func TestDeleteAcrossArrayEnd(t *testing.T) {
	var m Map[uint32]
	m.Put(1, 1) // allocate the first 8 slots
	m.Delete(1)
	last := len(m.keys) - 1
	var tail []uint64
	for k := uint64(1); len(tail) < 3; k++ {
		if m.home(k) == last {
			tail = append(tail, k)
		}
	}
	ref := make(map[uint64]uint32)
	for i, k := range tail {
		m.Put(k, uint32(i))
		ref[k] = uint32(i)
	}
	if m.keys[0] != tail[1] || m.keys[1] != tail[2] {
		t.Fatalf("slots %#x: want %#x and %#x wrapped to slots 0 and 1", m.keys, tail[1], tail[2])
	}
	m.Delete(tail[0])
	delete(ref, tail[0])
	check(t, &m, ref)
	if m.keys[last] != tail[1] || m.keys[0] != tail[2] || m.keys[1] != 0 {
		t.Fatalf("slots %#x after deleting the cluster head: want %#x, %#x shifted back", m.keys, tail[1], tail[2])
	}
}

// TestEmptyAllocatesNothing pins that the zero Map answers reads,
// deletes and iteration without allocating any slots.
func TestEmptyAllocatesNothing(t *testing.T) {
	var m Map[string]
	if n := testing.AllocsPerRun(100, func() {
		m.Get(7)
		m.Has(0)
		m.Delete(9)
		for range m.All() {
		}
	}); n != 0 || m.keys != nil {
		t.Fatalf("empty map allocated (%v allocs, %d slots)", n, len(m.keys))
	}
}

// TestChurnAllocs pins the steady state the simulator's tables run in: a
// window of live IDs sliding forward (insert the next ID, delete the
// oldest) at a fixed size allocates nothing once the table has grown.
func TestChurnAllocs(t *testing.T) {
	const window = 200
	var m Map[*int]
	var v int
	next := uint64(1)
	for ; next <= window; next++ {
		m.Put(next, &v)
	}
	churn := func() {
		for i := 0; i < 64; i++ {
			m.Put(next, &v)
			if _, ok := m.Delete(next - window); !ok {
				t.Fatalf("ID %d missing from the window", next-window)
			}
			next++
		}
	}
	churn() // warm: any growth the window needs happens here
	if n := testing.AllocsPerRun(100, churn); n != 0 {
		t.Fatalf("warmed Put/Delete churn at %d entries: %v allocs per run, want 0", window, n)
	}
	if m.Len() != window {
		t.Fatalf("Len = %d, want %d", m.Len(), window)
	}
}

// BenchmarkSlidingWindow measures one insert, one hit and one delete of
// a sliding ID window, the per-message pattern of the transports.
func BenchmarkSlidingWindow(b *testing.B) {
	const window = 256
	var m Map[uint64]
	for k := uint64(1); k <= window; k++ {
		m.Put(k, k)
	}
	next := uint64(window + 1)
	for b.Loop() {
		m.Put(next, next)
		m.Get(next - window/2)
		m.Delete(next - window)
		next++
	}
}

// BenchmarkGoMapSlidingWindow is the same pattern on a Go map.
func BenchmarkGoMapSlidingWindow(b *testing.B) {
	const window = 256
	m := make(map[uint64]uint64)
	for k := uint64(1); k <= window; k++ {
		m[k] = k
	}
	next := uint64(window + 1)
	for b.Loop() {
		m[next] = next
		_ = m[next-window/2]
		delete(m, next-window)
		next++
	}
}
