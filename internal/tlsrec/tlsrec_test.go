package tlsrec

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"smt/internal/wire"
)

func testAEAD(t *testing.T) *AEAD {
	t.Helper()
	key := bytes.Repeat([]byte{0x11}, Key128)
	iv := bytes.Repeat([]byte{0x22}, wire.GCMNonceLen)
	a, err := NewAEAD(key, iv)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewAEADValidation(t *testing.T) {
	if _, err := NewAEAD(make([]byte, 15), make([]byte, 12)); err == nil {
		t.Fatal("bad key length accepted")
	}
	if _, err := NewAEAD(make([]byte, 16), make([]byte, 11)); err == nil {
		t.Fatal("bad IV length accepted")
	}
	if _, err := NewAEAD(make([]byte, 32), make([]byte, 12)); err != nil {
		t.Fatalf("AES-256 rejected: %v", err)
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	a := testAEAD(t)
	for _, n := range []int{0, 1, 64, 1500, wire.MaxTLSRecord} {
		pt := bytes.Repeat([]byte{byte(n)}, n)
		rec, err := a.SealRecord(nil, 7, wire.RecordTypeApplicationData, pt, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec) != RecordWireLen(n, 0) {
			t.Fatalf("wire len = %d, want %d", len(rec), RecordWireLen(n, 0))
		}
		got, ct, err := a.OpenRecord(7, rec)
		if err != nil {
			t.Fatal(err)
		}
		if ct != wire.RecordTypeApplicationData {
			t.Fatalf("content type = %d", ct)
		}
		if !bytes.Equal(got, pt) {
			t.Fatalf("plaintext mismatch at n=%d", n)
		}
	}
}

func TestSealRecordTooBig(t *testing.T) {
	a := testAEAD(t)
	if _, err := a.SealRecord(nil, 0, 23, make([]byte, wire.MaxTLSRecord+1), 0); err != ErrRecordTooBig {
		t.Fatalf("err = %v, want ErrRecordTooBig", err)
	}
	// padding counts toward the limit too
	if _, err := a.SealRecord(nil, 0, 23, make([]byte, wire.MaxTLSRecord), 1); err != ErrRecordTooBig {
		t.Fatalf("err = %v, want ErrRecordTooBig", err)
	}
}

func TestWrongSeqFailsAuth(t *testing.T) {
	a := testAEAD(t)
	rec, _ := a.SealRecord(nil, 5, 23, []byte("hello"), 0)
	if _, _, err := a.OpenRecord(6, rec); err != ErrAuthFailed {
		t.Fatalf("err = %v, want ErrAuthFailed", err)
	}
}

func TestTamperedCiphertextFailsAuth(t *testing.T) {
	a := testAEAD(t)
	rec, _ := a.SealRecord(nil, 5, 23, []byte("hello"), 0)
	rec[len(rec)-1] ^= 1
	if _, _, err := a.OpenRecord(5, rec); err != ErrAuthFailed {
		t.Fatalf("err = %v, want ErrAuthFailed", err)
	}
}

func TestTamperedHeaderFailsAuth(t *testing.T) {
	a := testAEAD(t)
	rec, _ := a.SealRecord(nil, 5, 23, []byte("hello"), 0)
	rec[0] = wire.RecordTypeAlert // header is AAD
	if _, _, err := a.OpenRecord(5, rec); err != ErrAuthFailed {
		t.Fatalf("err = %v, want ErrAuthFailed", err)
	}
}

func TestOpenTruncated(t *testing.T) {
	a := testAEAD(t)
	rec, _ := a.SealRecord(nil, 1, 23, []byte("abc"), 0)
	if _, _, err := a.OpenRecord(1, rec[:3]); err != ErrBadRecord {
		t.Fatalf("short header: err = %v", err)
	}
	if _, _, err := a.OpenRecord(1, rec[:len(rec)-1]); err != ErrBadRecord {
		t.Fatalf("short body: err = %v", err)
	}
}

func TestPaddingConcealsLengthAndStrips(t *testing.T) {
	a := testAEAD(t)
	short, _ := a.SealRecord(nil, 1, 23, []byte("ab"), 100-2)
	long, _ := a.SealRecord(nil, 2, 23, bytes.Repeat([]byte{1}, 100), 0)
	if len(short) != len(long) {
		t.Fatalf("padded records differ on the wire: %d vs %d", len(short), len(long))
	}
	pt, ct, err := a.OpenRecord(1, short)
	if err != nil || ct != 23 || !bytes.Equal(pt, []byte("ab")) {
		t.Fatalf("padding not stripped: %q %d %v", pt, ct, err)
	}
}

// A record whose plaintext ends in zero bytes must not lose them to
// padding removal (the content-type byte terminates padding).
func TestTrailingZerosPreserved(t *testing.T) {
	a := testAEAD(t)
	pt := []byte{1, 2, 0, 0, 0}
	rec, _ := a.SealRecord(nil, 3, 23, pt, 4)
	got, _, err := a.OpenRecord(3, rec)
	if err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("trailing zeros lost: %v %v", got, err)
	}
}

func TestNonceXorConstruction(t *testing.T) {
	a := testAEAD(t)
	n0 := a.Nonce(0)
	if !bytes.Equal(n0[:], bytes.Repeat([]byte{0x22}, 12)) {
		t.Fatal("seq 0 nonce must equal static IV")
	}
	n1 := a.Nonce(1)
	if n1[11] != 0x22^1 {
		t.Fatalf("last nonce byte = %#x", n1[11])
	}
	if n0[:4] == nil || !bytes.Equal(n0[:4], n1[:4]) {
		t.Fatal("first 4 IV bytes must be untouched by seq XOR")
	}
}

func TestNonceUniquenessAcrossSchemes(t *testing.T) {
	// Figure 4: all three schemes must produce distinct nonces for
	// distinct (logical) records under one key.
	a := testAEAD(t)
	seen := map[[12]byte]bool{}
	// TLS/TCP: records 0..99
	var ss StreamSeq
	for i := 0; i < 100; i++ {
		n := a.Nonce(ss.Next())
		if seen[n] {
			t.Fatal("duplicate nonce (stream)")
		}
		seen[n] = true
	}
	// SMT: messages 100..109 × records 0..9 (IDs disjoint from above by
	// construction of the composite: high bits nonzero).
	alloc := DefaultAllocation
	for m := uint64(100); m < 110; m++ {
		for r := uint64(0); r < 10; r++ {
			seq, err := alloc.Compose(m, r)
			if err != nil {
				t.Fatal(err)
			}
			n := a.Nonce(seq)
			if seen[n] {
				t.Fatalf("duplicate nonce (composite m=%d r=%d)", m, r)
			}
			seen[n] = true
		}
	}
}

func TestCompose(t *testing.T) {
	a := DefaultAllocation
	seq, err := a.Compose(0xABCD, 7)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 0xABCD<<16|7 {
		t.Fatalf("seq = %#x", seq)
	}
	m, r := a.Split(seq)
	if m != 0xABCD || r != 7 {
		t.Fatalf("split = %d,%d", m, r)
	}
}

func TestComposeOverflow(t *testing.T) {
	a := DefaultAllocation
	if _, err := a.Compose(1<<48, 0); !errors.Is(err, ErrOverflow) {
		t.Fatalf("msgID overflow: %v", err)
	}
	if _, err := a.Compose(0, 1<<16); !errors.Is(err, ErrOverflow) {
		t.Fatalf("recIdx overflow: %v", err)
	}
	bad := BitAllocation{MsgIDBits: 30, RecIdxBits: 30}
	if _, err := bad.Compose(0, 0); err == nil {
		t.Fatal("invalid allocation accepted")
	}
}

func TestBitAllocationValid(t *testing.T) {
	cases := []struct {
		a  BitAllocation
		ok bool
	}{
		{BitAllocation{48, 16}, true},
		{BitAllocation{63, 1}, true},
		{BitAllocation{1, 63}, true},
		{BitAllocation{64, 0}, false},
		{BitAllocation{0, 64}, false},
		{BitAllocation{32, 16}, false},
	}
	for _, c := range cases {
		if c.a.Valid() != c.ok {
			t.Errorf("%v.Valid() = %v", c.a, c.a.Valid())
		}
	}
}

// Property: Compose/Split round-trips for in-range components under any
// valid allocation.
func TestComposeSplitProperty(t *testing.T) {
	f := func(bitsSeed uint8, msgID, recIdx uint64) bool {
		idBits := int(bitsSeed%62) + 1 // 1..62
		a := BitAllocation{MsgIDBits: idBits, RecIdxBits: 64 - idBits}
		msgID &= 1<<uint(idBits) - 1
		recIdx &= 1<<uint(a.RecIdxBits) - 1
		seq, err := a.Compose(msgID, recIdx)
		if err != nil {
			return false
		}
		m, r := a.Split(seq)
		return m == msgID && r == recIdx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The paper's claim: the record index occupies the low bits, so a
// hardware self-incrementing counter advances the composite correctly.
func TestCompositeIncrementMatchesHardwareCounter(t *testing.T) {
	a := DefaultAllocation
	base, _ := a.Compose(42, 0)
	for i := uint64(1); i < 100; i++ {
		want, _ := a.Compose(42, i)
		if base+i != want {
			t.Fatalf("composite not increment-compatible at %d", i)
		}
	}
}

func TestDefaultAllocationPaperNumbers(t *testing.T) {
	a := DefaultAllocation
	// ≈98 MB with 1.5 KB records, ≈1 GB with 16 KB records (§4.4.1)
	if mb := a.MaxMessageSize(1500) / (1 << 20); math.Abs(mb-93.75) > 0.01 {
		// 2^16 * 1500 B = 98.3 MB decimal = 93.75 MiB
		t.Fatalf("max size 1.5K records = %.2f MiB", mb)
	}
	if gb := a.MaxMessageSize(wire.MaxTLSRecord) / (1 << 30); gb != 1.0 {
		t.Fatalf("max size 16K records = %.2f GiB, want 1", gb)
	}
	if a.MaxMessages() != math.Exp2(48) {
		t.Fatal("max messages wrong")
	}
}

func TestFig5Table(t *testing.T) {
	rows := Fig5Table()
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Spot-check against the figure: 8 size bits → 56 ID bits → 72.1 P
	// messages and 0.4 MB max size (decimal MB in the figure; we report
	// MiB so compare the raw byte count).
	r0 := rows[0]
	if r0.IDBits != 56 {
		t.Fatalf("IDBits = %d", r0.IDBits)
	}
	if math.Abs(r0.MaxMessages-7.205759e16) > 1e12 {
		t.Fatalf("MaxMessages = %g", r0.MaxMessages)
	}
	if got := r0.MaxMsgSizeMB * (1 << 20); math.Abs(got-384000) > 1 {
		t.Fatalf("MaxMsgSize bytes = %g, want 384000", got)
	}
	// 17 size bits → 196.6 MB decimal
	r9 := rows[9]
	if got := r9.MaxMsgSizeMB * (1 << 20) / 1e6; math.Abs(got-196.608) > 0.001 {
		t.Fatalf("17-bit row = %g decimal MB", got)
	}
	// Monotonicity: size doubles, messages halve.
	for i := 1; i < len(rows); i++ {
		if rows[i].MaxMsgSizeMB != rows[i-1].MaxMsgSizeMB*2 {
			t.Fatal("size column not doubling")
		}
		if rows[i].MaxMessages != rows[i-1].MaxMessages/2 {
			t.Fatal("messages column not halving")
		}
	}
}

func TestMsgIDGuardSequential(t *testing.T) {
	g := NewMsgIDGuard()
	for i := uint64(0); i < 100; i++ {
		if err := g.Accept(i); err != nil {
			t.Fatal(err)
		}
	}
	if g.Pending() != 0 {
		t.Fatalf("pending = %d after contiguous IDs", g.Pending())
	}
	if err := g.Accept(50); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay below floor: %v", err)
	}
}

func TestMsgIDGuardOutOfOrder(t *testing.T) {
	g := NewMsgIDGuard()
	order := []uint64{3, 0, 5, 1, 2} // floor advances to 4 after these
	for _, id := range order {
		if err := g.Accept(id); err != nil {
			t.Fatalf("id %d: %v", id, err)
		}
	}
	if g.Pending() != 1 { // only 5 above floor 4
		t.Fatalf("pending = %d, want 1", g.Pending())
	}
	for _, id := range order {
		if err := g.Accept(id); !errors.Is(err, ErrReplay) {
			t.Fatalf("replay of %d not caught: %v", id, err)
		}
	}
	if !g.Seen(5) || g.Seen(4) {
		t.Fatal("Seen bookkeeping wrong")
	}
}

func TestMsgIDGuardReset(t *testing.T) {
	g := NewMsgIDGuard()
	_ = g.Accept(0)
	g.Reset()
	if err := g.Accept(0); err != nil {
		t.Fatalf("after reset: %v", err)
	}
}

// Property: for any permutation of distinct IDs, every first Accept
// succeeds and every repeat fails.
func TestMsgIDGuardProperty(t *testing.T) {
	f := func(ids []uint16) bool {
		g := NewMsgIDGuard()
		first := map[uint64]bool{}
		for _, raw := range ids {
			id := uint64(raw)
			err := g.Accept(id)
			if first[id] {
				if !errors.Is(err, ErrReplay) {
					return false
				}
			} else {
				if err != nil {
					return false
				}
				first[id] = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStreamAndPacketSeq(t *testing.T) {
	var s StreamSeq
	if s.Next() != 0 || s.Next() != 1 {
		t.Fatal("StreamSeq not sequential")
	}
}

// Property: seal/open round-trips arbitrary plaintext and padding.
func TestSealOpenProperty(t *testing.T) {
	a := testAEAD(t)
	f := func(pt []byte, pad uint8, seq uint64) bool {
		if len(pt) > 4096 {
			pt = pt[:4096]
		}
		rec, err := a.SealRecord(nil, seq, 23, pt, int(pad))
		if err != nil {
			return false
		}
		got, ct, err := a.OpenRecord(seq, rec)
		return err == nil && ct == 23 && bytes.Equal(got, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
