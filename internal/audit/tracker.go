package audit

import (
	"sort"

	"smt/internal/wire"
)

// Record-boundary trackers: reassemble each flow's record stream from
// whatever packet segmentation, reordering, and duplication the network
// produced, and hand complete records to the auditor. They trust nothing
// about the input — arbitrary indices, offsets, and overlaps must never
// panic or grow without bound (the fuzz target drives them directly).
//
// Two shapes exist, matching the two addressing schemes on the wire:
//
//   - msgTracker (SMT, Homa): records live inside TSO segments addressed
//     by (message ID, segment offset); packets within a segment are
//     ordered by their intra-segment index. Each record is
//     [4 B framing][5 B record header][ciphertext ‖ tag].
//   - streamTracker (TCP family): records live at byte offsets of one
//     continuous stream (TSOOffset carries the sequence number). Each
//     record is [5 B record header][ciphertext ‖ tag]; the framing
//     header is inside the encryption.

// Tracker memory caps (per flow).
const (
	maxSegments     = 64        // concurrently tracked segments
	maxPieces       = 256       // buffered out-of-order packets per segment
	maxStreamAhead  = 1 << 20   // buffered out-of-order stream bytes
	maxParsedLag    = 64 * 1024 // parsed prefix kept before trimming
	maxRecordLength = wire.MaxTLSRecord + 256
)

// segKey addresses one TSO segment within a flow.
type segKey struct {
	msgID uint64
	off   uint32
}

// segment reassembles one TSO segment's packets into its record bytes.
type segment struct {
	pieces map[uint16][]byte // out-of-order packets by intra-segment index
	buf    []byte            // contiguous bytes not yet parsed as records, owned copies
	next   uint16            // next index to append
	parsed int               // bytes of the segment emitted as complete records
	dirty  bool              // a tampered packet contributed
	dead   bool              // framing lost; stop parsing
}

// msgTracker tracks the live segments of one message-addressed flow.
type msgTracker struct {
	segs  map[segKey]*segment
	order []segKey // insertion order, for eviction
	spare []byte   // a fully parsed segment's buffer, for the next segment to fill
}

func newMsgTracker() *msgTracker {
	return &msgTracker{segs: make(map[segKey]*segment)}
}

// add feeds one delivered packet into the tracker. First delivery wins
// at each index: duplicates and identical retransmits are no-ops. An
// in-order packet is appended straight to the segment's buffer; only an
// out-of-order one is copied aside until the gap before it fills.
func (t *msgTracker) add(a *Auditor, f wire.Flow, msgID uint64, segOff uint32, idx uint16, payload []byte, tampered bool) {
	key := segKey{msgID: msgID, off: segOff}
	seg, ok := t.segs[key]
	if !ok {
		if len(t.segs) >= maxSegments {
			t.evictOldest(a)
		}
		seg = &segment{pieces: make(map[uint16][]byte)}
		t.segs[key] = seg
		t.order = append(t.order, key)
	}
	if tampered {
		seg.dirty = true
	}
	if seg.dead || idx < seg.next {
		return // already consumed (duplicate or retransmit of old bytes)
	}
	if idx != seg.next {
		if _, dup := seg.pieces[idx]; dup {
			return
		}
		if len(seg.pieces) >= maxPieces {
			a.stats.Evictions++
			return
		}
		seg.pieces[idx] = append([]byte(nil), payload...)
		return
	}
	if seg.buf == nil {
		seg.buf, t.spare = t.spare, nil
	}
	seg.buf = append(seg.buf, payload...)
	seg.next++
	for {
		piece, ok := seg.pieces[seg.next]
		if !ok {
			break
		}
		delete(seg.pieces, seg.next)
		seg.buf = append(seg.buf, piece...)
		seg.next++
	}
	t.parse(a, f, seg)
}

// evictOldest frees the longest-lived segment to bound memory; its
// unparsed tail is abandoned (counted, never flagged — eviction is an
// auditor limit, not a wire property).
func (t *msgTracker) evictOldest(a *Auditor) {
	if len(t.order) == 0 {
		return
	}
	key := t.order[0]
	t.order = t.order[1:]
	delete(t.segs, key)
	a.stats.Evictions++
}

// parse walks complete records off the segment's contiguous bytes,
// [4 B framing][5 B header][Length bytes], and keeps only the unparsed
// tail, so a buffer holds less than one record instead of growing to
// the whole segment. A buffer with no tail goes back to the tracker.
func (t *msgTracker) parse(a *Auditor, f wire.Flow, seg *segment) {
	rest := seg.buf
	for len(rest) >= wire.FramingHeaderLen+wire.RecordHeaderLen {
		var fr wire.FramingHeader
		var hdr wire.RecordHeader
		if fr.DecodeFromBytes(rest) != nil || hdr.DecodeFromBytes(rest[wire.FramingHeaderLen:]) != nil ||
			!validRecordHeader(hdr) || fr.AppDataLen > wire.MaxTLSRecord {
			t.desync(a, f, seg)
			return
		}
		total := wire.FramingHeaderLen + wire.RecordHeaderLen + int(hdr.Length)
		if len(rest) < total {
			break // record incomplete; wait for more packets
		}
		a.onRecord(f, rest[wire.FramingHeaderLen:total], seg.dirty)
		seg.parsed += total
		rest = rest[total:]
	}
	switch {
	case len(rest) == 0:
		t.spare, seg.buf = seg.buf[:0], nil
	case len(rest) < len(seg.buf):
		seg.buf = append(seg.buf[:0], rest...)
	}
}

// desync marks the segment unparseable: a violation in a fault-free
// run, a counted anomaly when faults may have mangled the bytes.
func (t *msgTracker) desync(a *Auditor, f wire.Flow, seg *segment) {
	seg.dead = true
	if seg.dirty || a.tolerant {
		a.stats.Desyncs++
		return
	}
	a.flag(KindRecordFraming, f, "segment bytes stopped parsing as framed records at offset %d", seg.parsed)
}

// streamTracker reassembles one byte-stream flow by sequence offset.
type streamTracker struct {
	base    uint32            // stream offset of buf[0]
	buf     []byte            // contiguous bytes from base, owned copies
	parsed  int               // bytes of buf emitted as complete records
	pending map[uint32][]byte // out-of-order pieces by stream offset
	ahead   int               // bytes buffered in pending
	dirty   bool
	dead    bool
}

func newStreamTracker() *streamTracker {
	return &streamTracker{pending: make(map[uint32][]byte)}
}

// cursor is the next contiguous stream offset.
func (t *streamTracker) cursor() uint32 { return t.base + uint32(len(t.buf)) }

// add feeds one delivered packet at stream offset off. First delivery
// wins; bytes rewritten at an already-seen offset with different
// content are counted as overlap conflicts (the kTLS-style in-place
// retransmit re-seal legally does this).
func (t *streamTracker) add(a *Auditor, f wire.Flow, off uint32, payload []byte, tampered bool) {
	if t.dead || len(payload) == 0 {
		return
	}
	if tampered {
		t.dirty = true
	}
	cur := t.cursor()
	switch {
	case off == cur:
		t.buf = append(t.buf, payload...)
	case off < cur:
		// Retransmit overlapping already-assembled bytes: compare the
		// overlap against what we kept, keep first-wins, append any new
		// suffix.
		back := cur - off
		if back >= uint32(len(payload)) {
			t.compareOverlap(a, off, payload)
			return
		}
		t.compareOverlap(a, off, payload[:back])
		t.buf = append(t.buf, payload[back:]...)
	default:
		// A gap: hold the piece until the stream catches up.
		if _, dup := t.pending[off]; dup {
			return
		}
		if t.ahead+len(payload) > maxStreamAhead {
			a.stats.Evictions++
			return
		}
		t.pending[off] = append([]byte(nil), payload...)
		t.ahead += len(payload)
		return
	}
	// Drain pending pieces that are now contiguous (or stale), lowest
	// offset first. Offset order matters: when held pieces overlap, the
	// piece that extends the stream decides which bytes land in buf, so
	// draining in map order would make the reassembled bytes (and the
	// overlap-conflict counts) run-dependent.
	for len(t.pending) > 0 {
		advanced := false
		cur = t.cursor()
		ready := make([]uint32, 0, len(t.pending))
		//smt:allow determinism -- offsets are sorted before use; iteration order never escapes
		for o := range t.pending {
			if o <= cur {
				ready = append(ready, o)
			}
		}
		sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
		for _, o := range ready {
			p := t.pending[o]
			delete(t.pending, o)
			t.ahead -= len(p)
			back := cur - o
			if back < uint32(len(p)) {
				t.compareOverlap(a, o, p[:back])
				t.buf = append(t.buf, p[back:]...)
				advanced = true
				break // cursor moved; rescan
			}
			t.compareOverlap(a, o, p)
		}
		if !advanced {
			break
		}
	}
	t.parse(a, f)
	t.trim()
}

// compareOverlap counts a conflict when retransmitted bytes differ from
// the first-seen bytes at the same offsets (only over the window still
// buffered).
func (t *streamTracker) compareOverlap(a *Auditor, off uint32, p []byte) {
	start := int64(off) - int64(t.base)
	for i := range p {
		j := start + int64(i)
		if j < 0 || j >= int64(len(t.buf)) {
			continue
		}
		if t.buf[j] != p[i] {
			a.stats.OverlapConflicts++
			return
		}
	}
}

// parse walks complete records off the contiguous stream:
// [5 B header][Length bytes].
func (t *streamTracker) parse(a *Auditor, f wire.Flow) {
	for {
		rest := t.buf[t.parsed:]
		if len(rest) < wire.RecordHeaderLen {
			return
		}
		var hdr wire.RecordHeader
		if hdr.DecodeFromBytes(rest) != nil || !validRecordHeader(hdr) {
			t.dead = true
			if t.dirty || a.tolerant {
				a.stats.Desyncs++
				return
			}
			a.flag(KindRecordFraming, f, "stream stopped parsing as records at offset %d", t.base+uint32(t.parsed))
			return
		}
		total := wire.RecordHeaderLen + int(hdr.Length)
		if len(rest) < total {
			return
		}
		a.onRecord(f, rest[:total], t.dirty)
		t.parsed += total
	}
}

// trim discards the parsed prefix once it grows past the lag cap,
// keeping buffered memory proportional to one record, not the stream.
func (t *streamTracker) trim() {
	if t.parsed < maxParsedLag {
		return
	}
	t.base += uint32(t.parsed)
	t.buf = append(t.buf[:0], t.buf[t.parsed:]...)
	t.parsed = 0
}

// validRecordHeader bounds what the trackers accept as a record header:
// a known TLS content type and a length that covers at least a tag and
// at most a maximum record plus expansion.
func validRecordHeader(hdr wire.RecordHeader) bool {
	switch hdr.ContentType {
	case wire.RecordTypeAlert, wire.RecordTypeHandshake, wire.RecordTypeApplicationData:
	default:
		return false
	}
	return int(hdr.Length) >= 1 && int(hdr.Length) <= maxRecordLength
}
