package experiments

import (
	"fmt"
	"sort"
	"strings"

	"smt/internal/core"
	"smt/internal/cost"
	"smt/internal/cpusim"
	"smt/internal/homa"
	"smt/internal/ktls"
	"smt/internal/rpc"
	"smt/internal/sim"
	"smt/internal/tcpls"
	"smt/internal/tcpsim"
)

// This file is the composable stack catalogue: the paper's design-space
// decomposition (Table 1) as an API. A stack under test is not an opaque
// closure but a StackSpec — a transport crossed with a record layer —
// and resolve turns it into the sockets and codecs every harness is
// built from: the pre-paired ones (BuildFabric's echo service and
// MeasureRedis) open their endpoints through its listen and connect,
// and the churn NewDialer dials over the same parts. The runnable
// matrix is therefore open: every buildable spec runs on every World
// shape (two-host and switched fabric), and combinations the
// decomposition cannot express (a bytestream record layer on a message
// transport, or SMT's transport-integrated records over TCP) are
// rejected by resolve with a descriptive error instead of silently not
// existing.

// Transport selects the layer that moves bytes or messages between
// hosts.
type Transport string

// Transports.
const (
	// TransportTCP is the kernel bytestream: per-connection ordering,
	// TSO/GRO, RTO/fast-retransmit loss recovery (internal/tcpsim).
	TransportTCP Transport = "tcp"
	// TransportHoma is the receiver-driven message transport
	// (internal/homa): SRPT scheduling, RESEND-based recovery, no
	// connections.
	TransportHoma Transport = "homa"
)

// RecordLayer selects the encryption placement layered over (or into)
// the transport.
type RecordLayer string

// Record layers.
const (
	// RecordPlain is no encryption (the TCP / Homa baselines).
	RecordPlain RecordLayer = "plain"
	// RecordUserTLS is user-space TLS over the bytestream: kTLS-sw
	// crypto plus an extra user-space copy and per-record syscalls
	// (Redis's stock configuration, §5.3).
	RecordUserTLS RecordLayer = "tls-user"
	// RecordKTLSSW is kernel TLS with software crypto.
	RecordKTLSSW RecordLayer = "ktls-sw"
	// RecordKTLSHW is kernel TLS with NIC autonomous offload on transmit.
	RecordKTLSHW RecordLayer = "ktls-hw"
	// RecordTCPLS is TCPLS: TLS records with in-record stream
	// multiplexing, software-only by construction (§5.5).
	RecordTCPLS RecordLayer = "tcpls"
	// RecordSMTSW / RecordSMTHW are the paper's transport-integrated
	// records (per-message sequence spaces, §4) in software / with NIC
	// offload. They extend the message transport and have no bytestream
	// form.
	RecordSMTSW RecordLayer = "smt-sw"
	RecordSMTHW RecordLayer = "smt-hw"
)

// StackSpec names one cell of the transport × record-layer matrix.
type StackSpec struct {
	// Name is the catalogue key and the System name experiments report
	// (e.g. "kTLS-sw"). Empty Name defaults to "transport+record".
	Name      string      `json:"name"`
	Transport Transport   `json:"transport"`
	Record    RecordLayer `json:"record"`
}

// name resolves the spec's display name.
func (s StackSpec) name() string {
	if s.Name != "" {
		return s.Name
	}
	return string(s.Transport) + "+" + string(s.Record)
}

// String renders the spec as "Name (transport × record)".
func (s StackSpec) String() string {
	return fmt.Sprintf("%s (%s × %s)", s.name(), s.Transport, s.Record)
}

// streamRecord is the bytestream half of a TCP-family stack: an HKDF
// label scoping its per-connection keys plus the codec constructor the
// transport invokes once per connection end.
type streamRecord struct {
	label    string
	newCodec func(cm *cost.Model, keys ktls.Keys) (tcpsim.Codec, error)
}

// validate constructs a probe codec pair so key-material or constructor
// errors surface as error returns (from resolve) instead of failing
// later inside a tcpsim accept path that cannot return one.
func (r *streamRecord) validate(cm *cost.Model) error {
	ck, sk := ktls.ConnKeys(r.label, 0, 0)
	if _, err := r.newCodec(cm, ck); err != nil {
		return fmt.Errorf("record layer %s: client codec: %w", r.label, err)
	}
	if _, err := r.newCodec(cm, sk); err != nil {
		return fmt.Errorf("record layer %s: server codec: %w", r.label, err)
	}
	return nil
}

// mustCodec builds one connection end's codec after validate has proven
// the constructor sound for this record layer's key shape; a failure
// here is a programming error, not a runtime condition.
func (r *streamRecord) mustCodec(cm *cost.Model, keys ktls.Keys) tcpsim.Codec {
	c, err := r.newCodec(cm, keys)
	if err != nil {
		//smt:allow panic -- resolve validated this record layer before any harness could reach it; failing after validation is a programming error
		panic(fmt.Sprintf("experiments: %s codec failed after validation: %v", r.label, err))
	}
	return c
}

// streamRecordFor maps a spec onto its bytestream record constructor;
// nil means plaintext. Specs whose record layer has no bytestream form
// get a descriptive error.
func streamRecordFor(spec StackSpec) (*streamRecord, error) {
	ktlsRec := func(mode ktls.Mode) *streamRecord {
		return &streamRecord{label: string(spec.Record), newCodec: func(cm *cost.Model, keys ktls.Keys) (tcpsim.Codec, error) {
			return ktls.New(cm, mode, keys)
		}}
	}
	switch spec.Record {
	case RecordPlain:
		return nil, nil
	case RecordUserTLS:
		return ktlsRec(ktls.ModeUserTLS), nil
	case RecordKTLSSW:
		return ktlsRec(ktls.ModeKTLSSW), nil
	case RecordKTLSHW:
		return ktlsRec(ktls.ModeKTLSHW), nil
	case RecordTCPLS:
		return &streamRecord{label: string(RecordTCPLS), newCodec: func(cm *cost.Model, keys ktls.Keys) (tcpsim.Codec, error) {
			return tcpls.New(cm, keys)
		}}, nil
	case RecordSMTSW, RecordSMTHW:
		return nil, fmt.Errorf("stack %s: record layer %q is transport-integrated encryption — it extends the homa message transport's per-message sequence space (§4) and has no bytestream form over tcp", spec.name(), spec.Record)
	default:
		return nil, fmt.Errorf("stack %s: unknown record layer %q (have plain, tls-user, ktls-sw, ktls-hw, tcpls, smt-sw, smt-hw)", spec.name(), spec.Record)
	}
}

// msgSock is what the harnesses use of a message-transport socket;
// homa.Socket and core.Socket both provide it.
type msgSock interface {
	OnMessage(func(homa.Delivery))
	Send(dst uint32, port uint16, payload []byte, thread int) uint64
	Port() uint16
	Close()
}

// msgTransport is the message-transport half of a homa stack: plain
// Homa, or SMT's transport-integrated records in software crypto or
// with NIC offload on transmit (hw).
type msgTransport struct{ smt, hw bool }

// open binds one of the stack's sockets on host.
func (m *msgTransport) open(host *cpusim.Host, cfg homa.Config) msgSock {
	if !m.smt {
		return homa.NewSocket(host, cfg, nil)
	}
	return core.NewSocket(host, core.Config{Transport: cfg, HWOffload: m.hw})
}

// wiring is a StackSpec resolved into the parts every harness builds
// it from: the message transport's sockets (msg, homa stacks) or the
// bytestream record layer (rec, tcp stacks; nil for plaintext TCP).
type wiring struct {
	name      string
	encrypted bool
	msg       *msgTransport
	rec       *streamRecord
}

// resolve decides the transport × record matrix for every harness —
// BuildFabric, MeasureRedis and NewDialer all build from its wiring. A
// combination the decomposition cannot express gets a descriptive
// error naming the stack and the record layer; a stream record layer
// is validated here, once, so no harness can fail on it later.
func resolve(spec StackSpec) (wiring, error) {
	wr := wiring{name: spec.name(), encrypted: spec.Record != RecordPlain}
	switch spec.Transport {
	case TransportTCP:
		rec, err := streamRecordFor(spec)
		if err != nil {
			return wiring{}, err
		}
		if rec != nil {
			if err := rec.validate(cost.Default()); err != nil {
				return wiring{}, fmt.Errorf("stack %s: %w", wr.name, err)
			}
		}
		wr.rec = rec
	case TransportHoma:
		switch spec.Record {
		case RecordPlain, RecordSMTSW, RecordSMTHW:
			wr.msg = &msgTransport{smt: wr.encrypted, hw: spec.Record == RecordSMTHW}
		case RecordUserTLS, RecordKTLSSW, RecordKTLSHW, RecordTCPLS:
			return wiring{}, fmt.Errorf("stack %s: record layer %q protects a TCP bytestream; the homa transport delivers whole messages with no byte sequence to cut records from — use smt-sw or smt-hw for encryption integrated into the message transport", wr.name, spec.Record)
		default:
			return wiring{}, fmt.Errorf("stack %s: unknown record layer %q", wr.name, spec.Record)
		}
	default:
		return wiring{}, fmt.Errorf("stack %s: unknown transport %q (have tcp, homa)", wr.name, spec.Transport)
	}
	return wr, nil
}

// declare tells the world's wire auditor (when one is attached) the
// stack's encryption policy before any traffic flows: plain record
// layers are allowed plaintext on the wire, everything else must show
// ciphertext.
func (wr wiring) declare(w *World) {
	if w.Audit != nil {
		w.Audit.SetExpectCiphertext(wr.encrypted)
	}
}

// --- the two endpoint halves every pre-paired harness builds on ---
//
// Both pre-establish every session before measuring, as the paper's
// harness does: the figure experiments measure steady state. Dialed
// connections, with a live key exchange, are the churn Dialer's
// (dial.go).

// replyTo is the way back to a request's sender: the server socket and
// the sender's (addr, port) on a message transport, or the accepted
// connection on a bytestream.
type replyTo struct {
	sock msgSock
	addr uint32
	port uint16
	conn *tcpsim.Conn
}

// send transmits a response from app thread thread.
func (to replyTo) send(payload []byte, thread int) {
	if to.conn != nil {
		to.conn.SendMessage(payload)
		return
	}
	to.sock.Send(to.addr, to.port, payload, thread)
}

// listen opens the stack's server endpoint on host: a socket bound on
// ServerPort, or a listener on serverPortK that keys each accepted
// connection from the record layer's label and the client half of its
// 4-tuple (ktls.ConnKeys), so no two connections in any world share
// keys. Every request it accepts reaches the world's Check hook, then
// serve, with the app thread it was delivered to and the way back.
// threads is the socket's homa.Config.AppThreads (nil: every app
// thread); a listener hands the listed threads to connections in turn.
// The returned socket is the one connect pairs clients with, nil for a
// bytestream stack.
func (wr wiring) listen(w *World, host *cpusim.Host, mtu int, noTSO bool, threads []int, serve func(req []byte, thread int, to replyTo)) msgSock {
	if wr.msg != nil {
		srv := wr.msg.open(host, homa.Config{Port: ServerPort, MTU: mtu, NoTSO: noTSO, AppThreads: threads})
		srv.OnMessage(func(d homa.Delivery) {
			w.checkDelivery(d.Payload)
			serve(d.Payload, d.AppThread, replyTo{sock: srv, addr: d.Src, port: d.SrcPort})
		})
		return srv
	}
	var codecs func(peerAddr uint32, peerPort uint16) tcpsim.Codec
	if rec := wr.rec; rec != nil {
		codecs = func(peerAddr uint32, peerPort uint16) tcpsim.Codec {
			_, sk := ktls.ConnKeys(rec.label, peerAddr, peerPort)
			return rec.mustCodec(w.CM, sk)
		}
	}
	next := 0
	tcpsim.Listen(host, serverPortK, tcpsim.Config{MTU: mtu}, codecs, func() int {
		t := next % AppThreads
		if threads != nil {
			t = threads[next%len(threads)]
		}
		next++
		return t
	}, func(c *tcpsim.Conn) {
		c.OnMessage(func(m []byte) {
			w.checkDelivery(m)
			serve(m, c.AppThread(), replyTo{conn: c})
		})
	})
	return nil
}

// connect opens one client endpoint on host against the endpoint listen
// opened on server: a socket whose SMT session with srv is keyed from
// seed (core.PairSessions, the state both ends reach after a handshake;
// Homa has no session), or one connection per stream, each keyed like
// the listener's. Every response it accepts reaches the world's Check
// hook, then onResp with its RPC request ID. The returned sender issues
// a request on a stream.
func (wr wiring) connect(w *World, host, server *cpusim.Host, srv msgSock, streams, mtu int, noTSO bool, seed byte, onResp func(reqID uint64)) (func(stream int, req []byte), error) {
	accept := func(m []byte) {
		w.checkDelivery(m)
		if id, _, err := rpc.Decode(m); err == nil {
			onResp(id)
		}
	}
	if wr.msg != nil {
		cli := wr.msg.open(host, homa.Config{MTU: mtu, NoTSO: noTSO})
		if wr.msg.smt {
			if err := core.PairSessions(cli.(*core.Socket), cli.Port(), srv.(*core.Socket), ServerPort, seed); err != nil {
				return nil, fmt.Errorf("%s: pair sessions: %w", wr.name, err)
			}
		}
		cli.OnMessage(func(d homa.Delivery) { accept(d.Payload) })
		return func(stream int, req []byte) {
			cli.Send(server.Addr, ServerPort, req, stream%AppThreads)
		}, nil
	}
	var codecs func(localPort uint16) tcpsim.Codec
	if rec := wr.rec; rec != nil {
		codecs = func(localPort uint16) tcpsim.Codec {
			ck, _ := ktls.ConnKeys(rec.label, host.Addr, localPort)
			return rec.mustCodec(w.CM, ck)
		}
	}
	conns := make([]*tcpsim.Conn, streams)
	for i := range conns {
		conns[i] = tcpsim.Dial(host, i%AppThreads, tcpsim.Config{MTU: mtu}, codecs, server.Addr, serverPortK, nil)
		conns[i].OnMessage(accept)
	}
	return func(stream int, req []byte) { conns[stream].SendMessage(req) }, nil
}

// establish runs the bytestream stacks' connection setup before
// measurement starts; message-transport sockets have none.
func (wr wiring) establish(w *World) {
	if wr.msg == nil {
		w.Eng.RunUntil(w.Eng.Now() + 5*sim.Millisecond)
	}
}

// BuildFabric composes a runnable FabricSystem from a spec: the echo
// service (world.go) on one listen and a connect per client host, over
// the sockets or record layer resolve chose. Each client pair gets its
// own session keys, as one TLS handshake per flow 5-tuple would produce
// (§4.2). A combination the decomposition cannot express returns a
// descriptive error; nothing in the build path panics on bad input.
// The composed Setup declares the spec's encryption policy to the
// world's wire auditor; it rejects NoTSO on a bytestream stack, whose
// connections always hand the NIC whole TSO segments.
func BuildFabric(spec StackSpec) (FabricSystem, error) {
	wr, err := resolve(spec)
	if err != nil {
		return FabricSystem{}, err
	}
	return FabricSystem{Name: wr.name, Setup: func(w *World, clients []*cpusim.Host, server *cpusim.Host, cfg FabricConfig, done func(int, uint64)) (func(int, int, uint64, int, int), error) {
		if cfg.NoTSO && wr.msg == nil {
			return nil, fmt.Errorf("stack %s: NoTSO cuts packets in the message transport's software path; a TCP bytestream has no software cut", wr.name)
		}
		wr.declare(w)
		e := &echoServer{w: w, host: server}
		srv := wr.listen(w, server, cfg.MTU, cfg.NoTSO, nil, e.serve)
		sends := make([]func(int, []byte), len(clients))
		for ci, ch := range clients {
			send, err := wr.connect(w, ch, server, srv, cfg.StreamsPerClient, cfg.MTU, cfg.NoTSO, byte(11+ci), func(id uint64) { done(ci, id) })
			if err != nil {
				return nil, fmt.Errorf("client %d: %w", ci, err)
			}
			sends[ci] = send
		}
		wr.establish(w)
		return func(client, stream int, reqID uint64, size, respSize int) {
			e.encBuf = rpc.AppendEncode(e.encBuf, reqID, uint32(respSize), size)
			sends[client](stream, e.encBuf)
		}, nil
	}}, nil
}

// BuildSystem composes the two-host System adapter for a spec.
func BuildSystem(spec StackSpec) (System, error) {
	f, err := BuildFabric(spec)
	if err != nil {
		return System{}, err
	}
	return f.System(), nil
}

// --- the named stacks ---

// stacks is the catalogue of named specs, in listing order. Every entry
// must build (TestStackMatrix) and the names and order are pinned
// (TestStackCatalogue).
var stacks = []StackSpec{
	{Name: "TCP", Transport: TransportTCP, Record: RecordPlain},
	{Name: "kTLS-sw", Transport: TransportTCP, Record: RecordKTLSSW},
	{Name: "kTLS-hw", Transport: TransportTCP, Record: RecordKTLSHW},
	{Name: "TLS", Transport: TransportTCP, Record: RecordUserTLS},
	{Name: "TCPLS", Transport: TransportTCP, Record: RecordTCPLS},
	{Name: "Homa", Transport: TransportHoma, Record: RecordPlain},
	{Name: "SMT-sw", Transport: TransportHoma, Record: RecordSMTSW},
	{Name: "SMT-hw", Transport: TransportHoma, Record: RecordSMTHW},
}

// LookupStack resolves a named stack (case-insensitive, surrounding
// space ignored).
func LookupStack(name string) (StackSpec, bool) {
	name = strings.TrimSpace(name)
	for _, s := range stacks {
		if strings.EqualFold(s.Name, name) {
			return s, true
		}
	}
	return StackSpec{}, false
}

// Stacks returns every named spec in listing order.
func Stacks() []StackSpec {
	return append([]StackSpec(nil), stacks...)
}

// StackNames returns the stack names, sorted.
func StackNames() []string {
	names := make([]string, len(stacks))
	for i, s := range stacks {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

// mustStack resolves a name from the stacks list; for lineup
// definitions only.
func mustStack(name string) StackSpec {
	s, ok := LookupStack(name)
	if !ok {
		//smt:allow panic -- lookup of the built-in lineup; a missing name is a bug in the stacks list
		panic("experiments: stack " + name + " not in the stacks list")
	}
	return s
}

// DefaultLineup is the six-stack lineup of the §5 figures, and what the
// lineup-driven experiments sweep unless RunOptions.Lineup selects
// another. Its registry artifacts are pinned bit-identical by
// TestGoldenTwoHostRTT and the determinism battery.
func DefaultLineup() []StackSpec {
	return []StackSpec{
		mustStack("TCP"), mustStack("kTLS-sw"), mustStack("kTLS-hw"),
		mustStack("Homa"), mustStack("SMT-sw"), mustStack("SMT-hw"),
	}
}

// RedisLineup is the §5.3 seven-stack lineup of Figure 8: the default
// six plus user-space TLS (Redis's stock configuration).
func RedisLineup() []StackSpec {
	return []StackSpec{
		mustStack("TCP"), mustStack("TLS"), mustStack("kTLS-sw"), mustStack("kTLS-hw"),
		mustStack("Homa"), mustStack("SMT-sw"), mustStack("SMT-hw"),
	}
}

// ParseStacks resolves a comma-separated stack-name list ("TCP,
// TCPLS, SMT-hw", case-insensitive) against the stacks list. A stack named
// twice is an error: it would give two points the same key.
func ParseStacks(arg string) ([]StackSpec, error) {
	var specs []StackSpec
	for _, n := range strings.Split(arg, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		s, ok := LookupStack(n)
		if !ok {
			return nil, fmt.Errorf("unknown stack %q (have: %s)", n, strings.Join(StackNames(), ", "))
		}
		for _, prev := range specs {
			if prev.Name == s.Name {
				return nil, fmt.Errorf("stack %q named twice in %q", s.Name, arg)
			}
		}
		specs = append(specs, s)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no stack names in %q (have: %s)", arg, strings.Join(StackNames(), ", "))
	}
	return specs, nil
}
