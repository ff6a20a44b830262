// Package audit implements a wire-compliance auditor: a promiscuous tap
// on netsim.Network that checks, over every packet of a run, the
// properties the paper's transport-level encryption claims — no
// plaintext application bytes on the wire, no (key, nonce) slot reuse,
// per-connection key-stream uniqueness — plus byte-conservation
// accounting across the delivery and drop paths.
//
// The auditor is a pure observer (see netsim.Tap): it never mutates
// packets, draws engine randomness, or schedules events, so a seeded run
// produces byte-identical artifacts with auditing on or off. Everything
// it keeps is copied out of the packets it sees.
//
// Two policy knobs shape what counts as a violation:
//
//   - SetExpectCiphertext declares whether the stacks under test encrypt
//     their data path. Content checks (plaintext scan, record
//     reassembly, slot tracking) only run when ciphertext is expected;
//     plain stacks keep only the conservation accounting.
//   - SetFaultInjection declares that the run tampers with packets
//     (netsim.Network.CorruptProb and friends). Under fault injection,
//     framing desyncs and slot rewrites downstream of tampering are
//     tolerated as statistics instead of violations — the receivers'
//     job is to reject them, the auditor's job is to notice them.
package audit

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"smt/internal/netsim"
	"smt/internal/wire"
)

// Violation kinds.
const (
	// KindPlaintextLeak: a delivered DATA packet carried recognizable
	// plaintext (the RPC body pattern, or low-entropy bulk bytes) on a
	// stack that promises ciphertext.
	KindPlaintextLeak = "plaintext-leak"
	// KindNonceReuse: the same record slot (flow, message, segment
	// offset, packet index) was observed with two different ciphertexts
	// in a fault-free run — two encryptions under one nonce position.
	KindNonceReuse = "nonce-reuse"
	// KindKeystreamReuse: two distinct flows produced an identical
	// protected record — identical plaintext under an identical
	// key-stream, i.e. shared per-connection keys.
	KindKeystreamReuse = "keystream-reuse"
	// KindRecordFraming: a flow's reassembled byte stream stopped
	// parsing as records in a fault-free run.
	KindRecordFraming = "record-framing"
	// KindByteAccounting: sent + duplicated != delivered + dropped, or
	// the tap's counts disagree with the network's own counters.
	KindByteAccounting = "byte-accounting"
)

// Violation is one audit failure.
type Violation struct {
	Kind   string
	Flow   wire.Flow
	Detail string
}

// String formats the violation.
func (v Violation) String() string {
	return fmt.Sprintf("%s [%s]: %s", v.Kind, v.Flow, v.Detail)
}

// Stats aggregates what the auditor observed. Counters, never judgments:
// violations are reported separately.
type Stats struct {
	// Tap-side packet accounting (mirrors the network's counters).
	Packets, PacketBytes       uint64 // packets entering the network
	Delivered, DeliveredBytes  uint64 // packets committed for delivery
	Dropped, DroppedBytes      uint64 // packets dropped (any reason)
	Duplicates, DuplicateBytes uint64 // injected duplicate copies

	// Content accounting.
	HandshakePackets uint64 // delivered HANDSHAKE packets (plaintext-exempt)
	DataPackets      uint64 // delivered DATA packets content-audited
	Tampered         uint64 // delivered packets marked wire.Packet.Tampered
	Records          uint64 // complete records reassembled across all flows
	HandshakeRecords uint64 // subset with the handshake content type

	// Tolerated anomalies (violations only in fault-free runs).
	SlotRewrites     uint64 // record slots re-sent with different bytes
	OverlapConflicts uint64 // stream bytes rewritten at the same offset
	Desyncs          uint64 // record parsers that lost framing
	Evictions        uint64 // tracker state dropped by memory caps

	// TotalViolations counts every violation, including those past the
	// recording cap of Violations().
	TotalViolations uint64
}

// Memory and reporting bounds. The auditor observes arbitrarily long
// runs, so every map and buffer it keeps is capped; overflow is counted
// in Stats.Evictions rather than growing without bound.
const (
	maxViolations      = 100     // recorded Violation values
	maxSlotEntries     = 1 << 19 // (flow, msg, seg, idx) -> ciphertext hash
	maxKeystreamFP     = 1 << 16 // global record fingerprints
	maxFlowFP          = 16      // fingerprinted records per flow
	maxFlows           = 1 << 12 // tracked flows
	plaintextRunMin    = 32      // incrementing-byte run that flags a leak
	entropyMinLen      = 1024    // payload length for the entropy test
	entropyMinBits     = 6.5     // bits/byte below which bulk bytes flag
	minFingerprintable = wire.RecordHeaderLen + wire.GCMTagLen + 8
)

// slotKey names one record-carrying packet position: a nonce slot in the
// message-addressed schemes (message ID ‖ segment offset ‖ packet index).
type slotKey struct {
	flow  wire.Flow
	msgID uint64
	off   uint32
	idx   uint16
}

// Auditor implements netsim.Tap. Single-goroutine, like the simulated
// world it observes. The zero value is not ready; use New.
type Auditor struct {
	expectCiphertext bool
	tolerant         bool // fault injection active

	stats      Stats
	violations []Violation

	flows     map[wire.Flow]*flowAudit
	slots     map[slotKey]uint64 // ciphertext content hash per slot
	keystream map[[sha256.Size]byte]wire.Flow
}

// flowAudit is the per-flow audit state: a record-boundary tracker of
// the matching shape plus the fingerprint budget.
type flowAudit struct {
	msg     *msgTracker    // message-addressed (SMT, Homa)
	stream  *streamTracker // byte-stream (TCP family)
	fpCount int
}

// New returns an auditor expecting ciphertext, fault-free.
func New() *Auditor {
	return &Auditor{
		expectCiphertext: true,
		flows:            make(map[wire.Flow]*flowAudit),
		slots:            make(map[slotKey]uint64),
		keystream:        make(map[[sha256.Size]byte]wire.Flow),
	}
}

// SetExpectCiphertext declares whether the run's data path is encrypted.
// With false (plain stacks), content checks are skipped and only packet
// accounting runs.
func (a *Auditor) SetExpectCiphertext(v bool) { a.expectCiphertext = v }

// SetFaultInjection declares that the run injects faults that legally
// produce tampered bytes, slot rewrites, and framing desyncs; those
// become statistics instead of violations.
func (a *Auditor) SetFaultInjection(v bool) { a.tolerant = v }

// Violations returns the recorded violations (capped at maxViolations;
// Stats().TotalViolations has the full count). The slice is owned by the
// auditor.
func (a *Auditor) Violations() []Violation { return a.violations }

// Stats returns a snapshot of the observation counters.
func (a *Auditor) Stats() Stats { return a.stats }

// flag records a violation.
func (a *Auditor) flag(kind string, f wire.Flow, format string, args ...any) {
	a.stats.TotalViolations++
	if len(a.violations) < maxViolations {
		a.violations = append(a.violations, Violation{Kind: kind, Flow: f, Detail: fmt.Sprintf(format, args...)})
	}
}

// PacketSent implements netsim.Tap. The audit tap is opt-in diagnostics
// (-audit); it is never attached in default or benchmark runs, so its
// bookkeeping is off the steady-state data path by construction.
//
//smt:coldpath opt-in diagnostics tap, never attached in benchmark runs
func (a *Auditor) PacketSent(pkt *wire.Packet) {
	a.stats.Packets++
	a.stats.PacketBytes += uint64(pkt.WireLen())
}

// PacketDropped implements netsim.Tap.
//
//smt:coldpath opt-in diagnostics tap, never attached in benchmark runs
func (a *Auditor) PacketDropped(pkt *wire.Packet, _ netsim.DropReason) {
	a.stats.Dropped++
	a.stats.DroppedBytes += uint64(pkt.WireLen())
}

// PacketDelivered implements netsim.Tap: the content checks live here,
// on every packet committed toward a receiver.
//
//smt:coldpath opt-in diagnostics tap, never attached in benchmark runs
func (a *Auditor) PacketDelivered(pkt *wire.Packet, dup bool) {
	w := uint64(pkt.WireLen())
	a.stats.Delivered++
	a.stats.DeliveredBytes += w
	if dup {
		a.stats.Duplicates++
		a.stats.DuplicateBytes += w
	}
	if pkt.Tampered {
		a.stats.Tampered++
	}
	// Handshake flights (key exchange, SYN/SYN-ACK) are counted but
	// exempt from the plaintext invariant: they are the protocol's own
	// cleartext negotiation, not application data.
	if pkt.Overlay.Type == wire.TypeHandshake {
		a.stats.HandshakePackets++
	}
	if !a.expectCiphertext || pkt.Overlay.Type != wire.TypeData || len(pkt.Payload) == 0 {
		return
	}
	a.stats.DataPackets++
	f := pkt.Flow()
	a.scanPlaintext(f, pkt.Payload)
	fa := a.flowFor(f)
	if fa == nil {
		return
	}
	if pkt.IP.Protocol == wire.ProtoTCP {
		if fa.stream == nil {
			fa.stream = newStreamTracker()
		}
		fa.stream.add(a, f, pkt.Overlay.TSOOffset, pkt.Payload, pkt.Tampered)
		return
	}
	// Message-addressed: the packet's intra-segment index is the IPv4 ID
	// (NIC TSO increments it from a zeroed base), except software
	// retransmits, which carry it in ResendPktOff (§4.3).
	idx := pkt.IP.ID
	if pkt.Overlay.Flags&wire.FlagRetransmit != 0 {
		idx = pkt.Overlay.ResendPktOff
	}
	a.checkSlot(f, pkt, idx)
	if fa.msg == nil {
		fa.msg = newMsgTracker()
	}
	fa.msg.add(a, f, pkt.Overlay.MsgID, pkt.Overlay.TSOOffset, idx, pkt.Payload, pkt.Tampered)
}

// flowFor returns (creating if needed) the per-flow state, nil once the
// flow cap is hit.
func (a *Auditor) flowFor(f wire.Flow) *flowAudit {
	if fa, ok := a.flows[f]; ok {
		return fa
	}
	if len(a.flows) >= maxFlows {
		a.stats.Evictions++
		return nil
	}
	fa := &flowAudit{}
	a.flows[f] = fa
	return fa
}

// checkSlot asserts that a record slot is never re-sent with different
// bytes in a fault-free run: a rewrite means two encryptions occupied
// one nonce position. Tampered packets neither record nor compare — the
// network mutated them, not the sender.
func (a *Auditor) checkSlot(f wire.Flow, pkt *wire.Packet, idx uint16) {
	if pkt.Tampered {
		return
	}
	key := slotKey{flow: f, msgID: pkt.Overlay.MsgID, off: pkt.Overlay.TSOOffset, idx: idx}
	h := slotHash(pkt.Payload)
	if prev, ok := a.slots[key]; ok {
		if prev != h {
			if a.tolerant {
				a.stats.SlotRewrites++
			} else {
				a.flag(KindNonceReuse, f, "slot msg=%d off=%d idx=%d re-sent with different ciphertext", key.msgID, key.off, key.idx)
			}
		}
		return
	}
	if len(a.slots) >= maxSlotEntries {
		a.stats.Evictions++
		return
	}
	a.slots[key] = h
}

// scanPlaintext flags payloads that look like application plaintext: a
// long run of incrementing-mod-256 bytes (the RPC body pattern — body
// byte i is byte(i), so any leaked body is one long such run), or
// low-entropy bulk bytes. AES-GCM ciphertext triggers neither: a 32-byte
// incrementing run has probability ~2^-248 per offset, and its byte
// entropy concentrates far above 6.5 bits at 1 KiB.
func (a *Auditor) scanPlaintext(f wire.Flow, p []byte) {
	if run := incRun(p); run >= plaintextRunMin {
		a.flag(KindPlaintextLeak, f, "%d-byte incrementing run (RPC body pattern) in %d-byte payload", run, len(p))
		return
	}
	if len(p) >= entropyMinLen {
		if h := entropy(p); h < entropyMinBits {
			a.flag(KindPlaintextLeak, f, "low-entropy payload: %.2f bits/byte over %d bytes", h, len(p))
		}
	}
}

// onRecord receives each complete record a tracker reassembles, counts
// it, and fingerprints the first few protected records per flow to
// detect identical records across distinct flows (key-stream reuse:
// identical plaintext under identical keys and nonce produces identical
// ciphertext — per-connection keys make this impossible by construction).
func (a *Auditor) onRecord(f wire.Flow, rec []byte, tampered bool) {
	a.stats.Records++
	var hdr wire.RecordHeader
	if hdr.DecodeFromBytes(rec) != nil {
		return
	}
	if hdr.ContentType == wire.RecordTypeHandshake {
		a.stats.HandshakeRecords++
	}
	if tampered || hdr.ContentType != wire.RecordTypeApplicationData || len(rec) < minFingerprintable {
		return
	}
	fa := a.flowFor(f)
	if fa == nil || fa.fpCount >= maxFlowFP {
		return
	}
	fa.fpCount++
	sum := sha256.Sum256(rec)
	if prev, ok := a.keystream[sum]; ok {
		if prev != f {
			a.flag(KindKeystreamReuse, f, "identical %d-byte protected record also sent on [%s]", len(rec), prev)
		}
		return
	}
	if len(a.keystream) >= maxKeystreamFP {
		a.stats.Evictions++
		return
	}
	a.keystream[sum] = f
}

// CheckConservation verifies byte/packet accounting at quiescence: every
// packet that entered the network (plus every injected duplicate) was
// either committed for delivery or dropped, and the tap's counts agree
// with the network's own counters. Call it only when the engine has
// drained — packets queued inside the switch are neither yet. Violations
// found are recorded and returned.
func (a *Auditor) CheckConservation(n *netsim.Network) []Violation {
	start := len(a.violations)
	var none wire.Flow
	s := &a.stats
	if s.Packets+s.Duplicates != s.Delivered+s.Dropped {
		a.flag(KindByteAccounting, none, "packets: sent %d + dup %d != delivered %d + dropped %d",
			s.Packets, s.Duplicates, s.Delivered, s.Dropped)
	}
	if s.PacketBytes+s.DuplicateBytes != s.DeliveredBytes+s.DroppedBytes {
		a.flag(KindByteAccounting, none, "bytes: sent %d + dup %d != delivered %d + dropped %d",
			s.PacketBytes, s.DuplicateBytes, s.DeliveredBytes, s.DroppedBytes)
	}
	if n != nil {
		if n.Delivered.N != s.Delivered || n.Delivered.Bytes != s.DeliveredBytes {
			a.flag(KindByteAccounting, none, "network Delivered %d/%dB != tap %d/%dB",
				n.Delivered.N, n.Delivered.Bytes, s.Delivered, s.DeliveredBytes)
		}
		if n.Dropped.N != s.Dropped || n.Dropped.Bytes != s.DroppedBytes {
			a.flag(KindByteAccounting, none, "network Dropped %d/%dB != tap %d/%dB",
				n.Dropped.N, n.Dropped.Bytes, s.Dropped, s.DroppedBytes)
		}
		if n.Duplicated.N != s.Duplicates || n.Duplicated.Bytes != s.DuplicateBytes {
			a.flag(KindByteAccounting, none, "network Duplicated %d/%dB != tap %d/%dB",
				n.Duplicated.N, n.Duplicated.Bytes, s.Duplicates, s.DuplicateBytes)
		}
		if n.SwitchDrops.N > n.Dropped.N {
			a.flag(KindByteAccounting, none, "SwitchDrops %d exceeds Dropped %d", n.SwitchDrops.N, n.Dropped.N)
		}
	}
	return a.violations[start:]
}

// incRun returns the length of the longest run of bytes that each
// increment the last by one (mod 256), among the runs that cross the
// first two bytes of some aligned 16-byte block; 0 when none does. Every
// run of 31 or more bytes covers a whole aligned block, so whenever the
// longest run reaches 31 this is its length. Ciphertext costs one
// compare per 16 bytes: a run is extended only around a hit.
func incRun(p []byte) int {
	best := 0
	for b := 0; b+1 < len(p); b += 16 {
		if p[b+1] != p[b]+1 {
			continue
		}
		lo, hi := b, b+2
		for lo > 0 && p[lo] == p[lo-1]+1 {
			lo--
		}
		for hi < len(p) && p[hi] == p[hi-1]+1 {
			hi++
		}
		best = max(best, hi-lo)
		// The next aligned block that can start another run begins at
		// or after the byte that broke this one.
		b = (hi - 1) &^ 15
	}
	return best
}

// flog2f[f] is f·log2 f, filled at package init, so the entropy of a
// histogram over n bytes is log2 n − Σ f·log2 f / n with no logarithm
// per bucket. It covers any bucket of a jumbo-MTU payload.
var flog2f [1 << 14]float64

func init() {
	for f := 2; f < len(flog2f); f++ {
		flog2f[f] = float64(f) * math.Log2(float64(f))
	}
}

// entropy returns the byte-level Shannon entropy of p in bits per byte.
func entropy(p []byte) float64 {
	if len(p) == 0 {
		return 0
	}
	var freq [256]uint32
	for _, c := range p {
		freq[c]++
	}
	var sum float64
	for _, f := range freq {
		if int(f) < len(flog2f) {
			sum += flog2f[f]
		} else {
			sum += float64(f) * math.Log2(float64(f))
		}
	}
	n := float64(len(p))
	return math.Log2(n) - sum/n
}

// slotHash is the slot-content fingerprint, eight bytes per step. Slot
// hashes are compared only within one auditor, and non-cryptographic is
// fine here: a collision can only hide a rewrite (never invent one).
// Each step is a bijection of the state, so two payloads of one length
// that differ in a single word never collide.
func slotHash(p []byte) uint64 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(len(p)) * m
	for ; len(p) >= 8; p = p[8:] {
		h = bits.RotateLeft64((h^binary.LittleEndian.Uint64(p))*m, 29)
	}
	var tail uint64
	for i, c := range p {
		tail |= uint64(c) << (8 * i)
	}
	h = (h ^ tail) * m
	return h ^ h>>32
}
