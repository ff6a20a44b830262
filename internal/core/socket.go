package core

import (
	"fmt"
	"slices"

	"smt/internal/cpusim"
	"smt/internal/homa"
	"smt/internal/sim"
	"smt/internal/tlsrec"
	"smt/internal/wire"
)

// Config configures an SMT socket: the underlying Homa transport options
// plus the encryption policy.
type Config struct {
	// Transport carries the Homa knobs; Proto is forced to ProtoSMT.
	Transport homa.Config
	// HWOffload enables NIC TLS offload for transmitted records
	// (SMT-hw); software encryption otherwise (SMT-sw). Receive-side
	// decryption is always software (§5: SMT does not use RX offload).
	HWOffload bool
	// Alloc is the composite sequence-number split; zero value selects
	// the paper's 48+16 default.
	Alloc tlsrec.BitAllocation
	// PadTo pads record plaintexts to multiples of this size (length
	// concealment, §6.1); 0 disables padding.
	PadTo int
}

// Socket is an SMT endpoint: a Homa socket whose per-peer codecs encrypt,
// decrypt, and replay-protect messages. Sessions must be registered (the
// result of the TLS handshake, §4.2) before data flows to or from a peer.
type Socket struct {
	*homa.Socket
	host        *cpusim.Host
	cfg         Config
	nextSession uint64
	sessions    []*Codec // in registration (session-base) order, for stats
}

// unregistered is the codec in place before key registration: it rejects
// everything, so traffic from unknown peers is dropped undecrypted.
type unregistered struct{}

func (unregistered) SegSpan() int           { return homa.DefaultSegSpan }
func (unregistered) WireLen(off, n int) int { return n }

// AcceptMessage always rejects: no session is registered yet. The stub
// is replaced at RegisterSession; a steady-state world never routes
// traffic through it.
//
//smt:coldpath error stub replaced at session registration
func (unregistered) AcceptMessage(uint64) error {
	return fmt.Errorf("core: no session registered for peer")
}
func (unregistered) Encode(uint64, []byte, int, int, int, bool) (homa.Segment, sim.Time) {
	//smt:allow panic -- harness wiring bug: a session must be paired or handshaken before Send
	panic("core: Send before RegisterSession")
}

// DecodeTo always rejects: no session is registered yet. The stub is
// replaced at RegisterSession; a steady-state world never routes
// traffic through it.
//
//smt:coldpath error stub replaced at session registration
func (unregistered) DecodeTo(dst []byte, _ uint64, _, _ int, _ []byte) ([]byte, sim.Time, error) {
	return dst, 0, fmt.Errorf("core: no session registered")
}

// NewSocket creates an SMT socket bound on host.
func NewSocket(host *cpusim.Host, cfg Config) *Socket {
	cfg.Transport.Proto = wire.ProtoSMT
	if !cfg.Alloc.Valid() {
		cfg.Alloc = tlsrec.DefaultAllocation
	}
	return &Socket{Socket: homa.NewSocket(host, cfg.Transport, unregistered{}), host: host, cfg: cfg}
}

// RegisterSession installs the negotiated keys for a peer — the
// setsockopt analog of §4.2. It may be called again to rekey (session
// resumption, §4.5.2), which resets the message-ID space.
func (s *Socket) RegisterSession(peerAddr uint32, peerPort uint16, keys SessionKeys) (*Codec, error) {
	base := (uint64(s.Port())<<32 | s.nextSession<<16)
	s.nextSession++
	codec, err := NewCodec(s.host.CM, keys, s.cfg.Alloc, s.cfg.HWOffload, s.cfg.PadTo, base)
	if err != nil {
		return nil, err
	}
	s.Socket.SetCodec(peerAddr, peerPort, codec)
	s.sessions = append(s.sessions, codec)
	return codec, nil
}

// Send transmits an encrypted message to a registered peer, validating
// the size against the record-index budget (§4.4.1).
func (s *Socket) Send(dstAddr uint32, dstPort uint16, payload []byte, appThread int) uint64 {
	codec, ok := s.Socket.Peer(dstAddr, dstPort).(*Codec)
	if !ok {
		//smt:allow panic -- harness wiring bug: a session must be paired or handshaken before Send
		panic("core: Send before RegisterSession")
	}
	if len(payload) > codec.MaxMessageSize() {
		//smt:allow panic -- exceeding the sequence-allocation limit would silently wrap record numbers; fail at the misuse site
		panic(fmt.Sprintf("core: message %d B exceeds allocation limit %d B",
			len(payload), codec.MaxMessageSize()))
	}
	return s.Socket.Send(dstAddr, dstPort, payload, appThread)
}

// Codecs returns a copy of the registered session codecs in
// registration order, the order RegisterSession hands out their session
// bases (stats inspection).
func (s *Socket) Codecs() []*Codec {
	return slices.Clone(s.sessions)
}

// PairSessions wires two SMT sockets with mirrored session keys, the
// state both ends reach after a TLS 1.3 handshake. Tests and benchmarks
// that measure the data path use it to skip the handshake; the handshake
// package performs the real exchange.
func PairSessions(a *Socket, aPeerPort uint16, b *Socket, bPeerPort uint16, seed byte) error {
	k1, iv1 := testKey(seed, 0), testIV(seed, 1)
	k2, iv2 := testKey(seed, 2), testIV(seed, 3)
	_, err := a.RegisterSession(b.Host().Addr, bPeerPort, SessionKeys{TxKey: k1, TxIV: iv1, RxKey: k2, RxIV: iv2})
	if err != nil {
		return err
	}
	_, err = b.RegisterSession(a.Host().Addr, aPeerPort, SessionKeys{TxKey: k2, TxIV: iv2, RxKey: k1, RxIV: iv1})
	return err
}

func testKey(seed, salt byte) []byte {
	k := make([]byte, tlsrec.Key128)
	for i := range k {
		k[i] = seed ^ salt ^ byte(i*13+7)
	}
	return k
}

func testIV(seed, salt byte) []byte {
	iv := make([]byte, wire.GCMNonceLen)
	for i := range iv {
		iv[i] = seed ^ salt ^ byte(i*29+3)
	}
	return iv
}
