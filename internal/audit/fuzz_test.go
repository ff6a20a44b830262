package audit

import (
	"math"
	"testing"

	"smt/internal/wire"
)

// FuzzRecordTracker drives the per-flow record-boundary trackers with
// arbitrary packet sequences: any segmentation, reordering, duplication,
// overlap, or garbage the fuzzer invents must never panic, break the
// trackers' internal bookkeeping, or blow their memory caps. The input
// is decoded as a stream of fixed-size op headers, each followed by its
// payload bytes:
//
//	byte 0: mode bits (0: tcp/msg shape, 1: tampered, 2: dup,
//	        3: retransmit flag, 4: fault-injection tolerant)
//	byte 1: flow selector (4 flows)
//	byte 2: message ID
//	bytes 3-6: stream/segment offset (big-endian)
//	bytes 7-8: intra-segment index (big-endian)
//	byte 9: payload length
func FuzzRecordTracker(f *testing.F) {
	// Seed corpus: well-formed record streams under the segmentations the
	// unit tests pin, plus pathological shapes (garbage, huge offsets,
	// index gaps) so the fuzzer starts near both the happy path and the
	// cliffs.
	rec := protectedRecord(99, 300) // 325 bytes
	var inOrder, reversed []byte
	for i := 0; i < 3; i++ {
		lo, hi := i*109, (i+1)*109
		if hi > len(rec) {
			hi = len(rec)
		}
		inOrder = append(inOrder, fuzzOp(0, 0, 1, 0, uint16(i), rec[lo:hi])...)
	}
	for i := 2; i >= 0; i-- {
		lo, hi := i*109, (i+1)*109
		if hi > len(rec) {
			hi = len(rec)
		}
		reversed = append(reversed, fuzzOp(0, 0, 1, 0, uint16(i), rec[lo:hi])...)
	}
	f.Add(inOrder)
	f.Add(reversed)
	stream := rec[wire.FramingHeaderLen:] // tcp shape: no framing prefix
	f.Add(append(
		fuzzOp(1, 1, 0, 200, 0, stream[200:]),   // future piece first
		fuzzOp(1, 1, 0, 0, 0, stream[:200])...)) // then the head
	f.Add(fuzzOp(2, 2, 5, 0, 0, []byte{0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa, 0xf9, 0xf8, 0xf7, 0xf6}))
	f.Add(fuzzOp(1, 3, 0, 0xfffffff0, 0, stream[:64]))
	f.Add(fuzzOp(0, 0, 7, 0, 0xffff, rec[:50]))

	f.Fuzz(func(t *testing.T, data []byte) {
		a := New()
		for len(data) >= 10 {
			mode := data[0]
			flow := msgFlow(6000 + uint16(data[1]&3))
			msgID := uint64(data[2])
			off := uint32(data[3])<<24 | uint32(data[4])<<16 | uint32(data[5])<<8 | uint32(data[6])
			idx := uint16(data[7])<<8 | uint16(data[8])
			n := int(data[9])
			data = data[10:]
			if n > len(data) {
				n = len(data)
			}
			payload := data[:n]
			data = data[n:]

			a.SetFaultInjection(mode&16 != 0)
			pkt := dataPacket(flow, msgID, off, idx, payload)
			if mode&1 != 0 {
				pkt.IP.Protocol = wire.ProtoTCP
				pkt.Overlay.TSOOffset = off
			}
			pkt.Tampered = mode&2 != 0
			if mode&8 != 0 {
				pkt.Overlay.Flags |= wire.FlagRetransmit
				pkt.Overlay.ResendPktOff = idx
			}
			a.PacketDelivered(pkt, mode&4 != 0)
		}
		checkTrackerInvariants(t, a)
	})
}

// checkTrackerInvariants asserts the bookkeeping every tracker promises
// regardless of input: parse cursors inside buffers, a live segment
// buffering less than one record, byte counts in agreement, and every
// memory cap respected.
func checkTrackerInvariants(t *testing.T, a *Auditor) {
	t.Helper()
	if len(a.violations) > maxViolations {
		t.Fatalf("recorded %d violations, cap is %d", len(a.violations), maxViolations)
	}
	if len(a.flows) > maxFlows {
		t.Fatalf("tracking %d flows, cap is %d", len(a.flows), maxFlows)
	}
	for f, fa := range a.flows {
		if st := fa.stream; st != nil {
			if st.parsed < 0 || st.parsed > len(st.buf) {
				t.Fatalf("flow %s: stream parsed cursor %d outside buf [0,%d]", f, st.parsed, len(st.buf))
			}
			ahead := 0
			for _, p := range st.pending {
				ahead += len(p)
			}
			if ahead != st.ahead {
				t.Fatalf("flow %s: pending bytes %d != accounted ahead %d", f, ahead, st.ahead)
			}
			if st.ahead > maxStreamAhead {
				t.Fatalf("flow %s: %d bytes ahead, cap is %d", f, st.ahead, maxStreamAhead)
			}
		}
		if mt := fa.msg; mt != nil {
			if len(mt.segs) > maxSegments {
				t.Fatalf("flow %s: %d segments, cap is %d", f, len(mt.segs), maxSegments)
			}
			for key, seg := range mt.segs {
				if !seg.dead && len(seg.buf) >= wire.FramingHeaderLen+wire.RecordHeaderLen+maxRecordLength {
					t.Fatalf("flow %s seg %v: %d unparsed bytes buffered, more than one record", f, key, len(seg.buf))
				}
				if len(seg.pieces) > maxPieces {
					t.Fatalf("flow %s seg %v: %d pieces, cap is %d", f, key, len(seg.pieces), maxPieces)
				}
			}
		}
	}
}

// fuzzOp encodes one fuzz op: mode, flow selector, message ID, offset,
// index, payload.
func fuzzOp(mode, flowSel byte, msgID byte, off uint32, idx uint16, payload []byte) []byte {
	op := []byte{
		mode, flowSel, msgID,
		byte(off >> 24), byte(off >> 16), byte(off >> 8), byte(off),
		byte(idx >> 8), byte(idx),
		byte(len(payload)),
	}
	return append(op, payload...)
}

// FuzzPlaintextScan pins the fast plaintext scan to the byte-at-a-time
// references below: incRun must flag (reach plaintextRunMin) exactly the
// payloads longestIncRun flags, and entropy must agree with shannon
// within 1e-9. Each input plants an incrementing run of n bytes from
// start at offset at, so alignment boundaries are explored, not just
// the random bytes around them.
func FuzzPlaintextScan(f *testing.F) {
	ct := make([]byte, 1500)
	fill(7, ct)
	f.Add(ct, uint16(17), uint8(31), byte(250))
	f.Add(ct, uint16(33), uint8(32), byte(0))
	f.Add(ct[:40], uint16(8), uint8(32), byte(9))
	f.Add(make([]byte, 1024), uint16(0), uint8(0), byte(0))

	f.Fuzz(func(t *testing.T, p []byte, at uint16, n uint8, start byte) {
		if len(p) > 0 {
			for i, j := 0, int(at)%len(p); i < int(n) && j < len(p); i, j = i+1, j+1 {
				p[j] = start + byte(i)
			}
		}
		fast, ref := incRun(p), longestIncRun(p)
		if (fast >= plaintextRunMin) != (ref >= plaintextRunMin) {
			t.Fatalf("incRun = %d, longestIncRun = %d: verdicts differ at the %d-byte bar", fast, ref, plaintextRunMin)
		}
		if fast > ref || (ref >= 31 && fast != ref) {
			t.Fatalf("incRun = %d, longestIncRun = %d", fast, ref)
		}
		if h, want := entropy(p), shannon(p); math.Abs(h-want) > 1e-9 {
			t.Fatalf("entropy = %.12f, shannon = %.12f", h, want)
		}
	})
}

// longestIncRun is the byte-at-a-time reference for incRun: the longest
// run of consecutive bytes where each increments the last by one (mod
// 256).
func longestIncRun(p []byte) int {
	best, run := 0, 1
	for i := 1; i < len(p); i++ {
		if p[i] == p[i-1]+1 {
			run++
		} else {
			if run > best {
				best = run
			}
			run = 1
		}
	}
	if run > best {
		best = run
	}
	if len(p) == 0 {
		return 0
	}
	return best
}

// shannon is the reference for entropy: the byte-level Shannon entropy
// of p in bits per byte, one logarithm per non-empty bucket.
func shannon(p []byte) float64 {
	var freq [256]int
	for _, c := range p {
		freq[c]++
	}
	n := float64(len(p))
	var h float64
	for _, f := range freq {
		if f == 0 {
			continue
		}
		q := float64(f) / n
		h -= q * math.Log2(q)
	}
	return h
}
