package tcpsim

// OutOfOrderBufs reports how many out-of-order segment buffers c owns:
// those still held for a hole and those back on its free list, for the
// recycled-chunk tests of package tcpsim_test.
func OutOfOrderBufs(c *Conn) (held, free int) { return c.ooo.Len(), len(c.oooFree) }

// Unacked reports c's first unacknowledged stream offset and the offset
// of the queued chunk that holds it, where the next retransmission
// starts; ok is false when no queued chunk holds it.
func Unacked(c *Conn) (una, chunk int64, ok bool) {
	for _, tc := range c.chunks {
		if c.sndUna >= tc.seq && c.sndUna < tc.seq+int64(len(tc.chunk.Bytes)) {
			return c.sndUna, tc.seq, true
		}
	}
	return c.sndUna, 0, false
}
