// Package idmap is a hash table from uint64 keys to values, for the
// lookups the simulator makes once per packet or once per message:
// message IDs, record-sequence floors, packed (address, port) words and
// histogram buckets. Those keys are mostly sequential, so one multiply
// spreads them evenly and linear probing finds them in one or two
// slots, where a Go map calls its hash function and scans a control
// word on every lookup.
//
// Keys and values sit in parallel arrays at a load factor of at most
// 3/4, and a deletion shifts the rest of its probe cluster back instead
// of leaving a tombstone, so lookups never slow down as entries churn.
// The zero Map is empty and allocates nothing until its first insert.
//
// Slot order depends on the table's capacity and insertion history,
// not on the keys alone; callers that need an order sort the keys.
package idmap

import (
	"iter"
	"math/bits"
)

// Map maps uint64 keys to values of type V. The zero value is an empty
// map ready to use. A Map is not safe for concurrent use.
type Map[V any] struct {
	keys  []uint64 // 0 marks an empty slot; len is 0 or a power of two
	vals  []V
	n     int   // occupied slots (the zero key is not in a slot)
	shift uint8 // 64 - log2(len(keys))
	// The zero key cannot be told from an empty slot, so it lives here.
	hasZero bool
	zero    V
}

// minSlots is the capacity of the first allocation.
const minSlots = 8

// home returns k's preferred slot: the top bits of k times 2^64/φ.
func (m *Map[V]) home(k uint64) int { return int((k * 0x9E3779B97F4A7C15) >> m.shift) }

// find returns the slot holding k, or -1. k must not be 0.
func (m *Map[V]) find(k uint64) int {
	if m.n == 0 {
		return -1
	}
	mask := len(m.keys) - 1
	for i := m.home(k); ; i = (i + 1) & mask {
		switch m.keys[i] {
		case k:
			return i
		case 0:
			return -1
		}
	}
}

// Len reports the number of entries.
func (m *Map[V]) Len() int {
	if m.hasZero {
		return m.n + 1
	}
	return m.n
}

// Get returns the value stored under k and whether there is one.
func (m *Map[V]) Get(k uint64) (v V, ok bool) {
	if k == 0 {
		return m.zero, m.hasZero
	}
	if i := m.find(k); i >= 0 {
		return m.vals[i], true
	}
	return v, false
}

// Has reports whether k has an entry.
func (m *Map[V]) Has(k uint64) bool {
	if k == 0 {
		return m.hasZero
	}
	return m.find(k) >= 0
}

// Put stores v under k.
func (m *Map[V]) Put(k uint64, v V) { *m.Ref(k) = v }

// Ref returns a pointer to the value stored under k, first storing the
// zero value if k has no entry (the table's form of m[k] += x). The
// pointer is valid until the next Put, Ref or Delete.
func (m *Map[V]) Ref(k uint64) *V {
	if k == 0 {
		m.hasZero = true
		return &m.zero
	}
	if 4*(m.n+1) > 3*len(m.keys) {
		if i := m.find(k); i >= 0 {
			return &m.vals[i]
		}
		m.grow()
	}
	mask := len(m.keys) - 1
	i := m.home(k)
	for m.keys[i] != k {
		if m.keys[i] == 0 {
			m.keys[i] = k
			m.n++
			break
		}
		i = (i + 1) & mask
	}
	return &m.vals[i]
}

// Delete removes k's entry and returns the value it held, if any.
func (m *Map[V]) Delete(k uint64) (v V, ok bool) {
	if k == 0 {
		v, ok = m.zero, m.hasZero
		var zero V
		m.zero, m.hasZero = zero, false
		return v, ok
	}
	i := m.find(k)
	if i < 0 {
		return v, false
	}
	v = m.vals[i]
	// Backward shift: walk the rest of the probe cluster and move each
	// entry whose home slot does not lie in (hole, j] back into the
	// hole, so no probe from any home slot meets an empty slot early.
	mask := len(m.keys) - 1
	for j := (i + 1) & mask; m.keys[j] != 0; j = (j + 1) & mask {
		if h := m.home(m.keys[j]); (j-h)&mask >= (j-i)&mask {
			m.keys[i], m.vals[i] = m.keys[j], m.vals[j]
			i = j
		}
	}
	var zero V
	m.keys[i], m.vals[i] = 0, zero
	m.n--
	return v, true
}

// All iterates over the entries in slot order, which depends on the
// insertion history: callers that need a defined order sort the keys.
// The map must not be modified during the iteration.
func (m *Map[V]) All() iter.Seq2[uint64, V] {
	return func(yield func(uint64, V) bool) {
		if m.hasZero && !yield(0, m.zero) {
			return
		}
		for i, k := range m.keys {
			if k != 0 && !yield(k, m.vals[i]) {
				return
			}
		}
	}
}

// grow doubles the slot arrays (or makes the first ones) and rehashes
// every entry into them.
//
//smt:coldpath table growth runs log2(size) times per table; steady state reuses its slots
func (m *Map[V]) grow() {
	keys, vals := m.keys, m.vals
	size := 2 * len(keys)
	if size == 0 {
		size = minSlots
	}
	m.keys, m.vals = make([]uint64, size), make([]V, size)
	m.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for j, k := range keys {
		if k == 0 {
			continue
		}
		i := m.home(k)
		for m.keys[i] != 0 {
			i = (i + 1) & mask
		}
		m.keys[i], m.vals[i] = k, vals[j]
	}
}
