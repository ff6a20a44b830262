// Dialed connections: the live connect path that replaces pre-paired
// key installation (core.PairSessions / ktls.ConnKeys) with a real
// §4.5 key exchange run over the fabric in virtual time.
//
// Two pieces live here:
//
//   - The conduit, one per dial, that carries the exchange's flights
//     as wire.TypeHandshake packets through the simulated network
//     (homa.Socket.SendHandshake or tcpsim.Conn.SendHandshake), so
//     exchange latency reflects the actual fabric RTT and the flights
//     are visible to (and exempted by) the audit tap. Every flight to
//     an SMT server lands on its one socket; the Dialer's pending map
//     routes it to its conduit.
//   - The Dialer used by the churn experiment: per-connection dialing
//     under a HandshakePolicy (1-RTT, 0-RTT via dcdns ticket, or
//     session resumption), with app traffic admitted only after keys
//     are installed on both ends.
package experiments

import (
	"fmt"

	"smt/internal/core"
	"smt/internal/cpusim"
	"smt/internal/dcdns"
	"smt/internal/handshake"
	"smt/internal/homa"
	"smt/internal/rpc"
	"smt/internal/sim"
	"smt/internal/tcpsim"
)

// hsFiller backs every handshake flight's payload bytes. The flights'
// content is opaque to the simulation (only sizes and Table 2 costs
// matter); the packets copy out of it and nothing writes it.
var hsFiller = make([]byte, handshake.FlightSHLOCert)

// hsKey identifies one in-flight exchange by the client half of the
// 4-tuple — unique per dialed connection, since every client socket
// and TCP connection allocates its own ephemeral port.
type hsKey struct {
	addr uint32
	port uint16
}

// flightRx reassembles one expected flight from its MTU-cut packets:
// deliver fires exactly once, when `want` bytes have arrived. Stray
// bytes after delivery (or before a flight is expected) are dropped.
type flightRx struct {
	want, got int
	deliver   func()
}

func (f *flightRx) expect(want int, deliver func()) {
	f.want, f.got, f.deliver = want, 0, deliver
}

func (f *flightRx) feed(n int) {
	f.got += n
	if f.deliver != nil && f.got >= f.want {
		fn := f.deliver
		f.deliver = nil
		fn()
	}
}

// conduit carries one dialed exchange's flights as TypeHandshake
// packets: a sender toward each side, and a flightRx at each side that
// the side's handshake hook feeds.
type conduit struct {
	sendSrv, sendCli func(flight []byte)
	toSrv, toCli     flightRx
}

func (c *conduit) ToServer(size int, deliver func()) {
	c.toSrv.expect(size, deliver)
	c.sendSrv(hsFiller[:size])
}

func (c *conduit) ToClient(size int, deliver func()) {
	c.toCli.expect(size, deliver)
	c.sendCli(hsFiller[:size])
}

// installStreamCodecs installs the mirrored codecs an exchange result
// keys on both connection ends.
func installStreamCodecs(w *World, rec *streamRecord, cliConn, srvConn *tcpsim.Conn, res handshake.Result) error {
	cc, err := rec.newCodec(w.CM, res.Client)
	if err != nil {
		return err
	}
	sc, err := rec.newCodec(w.CM, res.Server)
	if err != nil {
		return err
	}
	cliConn.SetCodec(cc)
	srvConn.SetCodec(sc)
	return nil
}

// --- churn dialer ---

// HandshakePolicy selects how a dialed churn connection establishes
// its keys.
type HandshakePolicy int

const (
	// HSNone: plaintext stack, no key exchange (transport setup only).
	HSNone HandshakePolicy = iota
	// HS1RTT: full 1-RTT exchange with certificate verification.
	HS1RTT
	// HS0RTT: 0-RTT init against the server's dcdns SMT-ticket; falls
	// back to nothing else — an expired ticket is re-minted by the
	// resolver (counted as a miss) and the exchange still runs 0-RTT.
	HS0RTT
	// HSResume: session resumption (Rsmp) from the client host's
	// cached resumption master secret; the first connection per client
	// host bootstraps with a 1-RTT exchange.
	HSResume
)

func (p HandshakePolicy) String() string {
	switch p {
	case HSNone:
		return "none"
	case HS1RTT:
		return "1rtt"
	case HS0RTT:
		return "0rtt"
	case HSResume:
		return "resume"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ChurnPolicyFor is the default policy per stack: SMT stacks dial
// 0-RTT off the dcdns ticket (§4.5's headline path), other encrypted
// stacks resume where they can, plaintext stacks skip the exchange.
func ChurnPolicyFor(spec StackSpec) HandshakePolicy {
	switch spec.Record {
	case RecordPlain:
		return HSNone
	case RecordSMTSW, RecordSMTHW:
		return HS0RTT
	default:
		return HSResume
	}
}

// dialService is the dcdns name the churn server registers under.
const dialService = "svc.smt"

// DialConfig parameterizes a Dialer.
type DialConfig struct {
	// Policy is the key-establishment policy (default per stack:
	// ChurnPolicyFor).
	Policy HandshakePolicy
	// TicketTTL is the dcdns rotation period (0 = dcdns.DefaultTTL).
	TicketTTL sim.Time
}

// DialedConn is one live dialed connection.
type DialedConn struct {
	// Policy and TicketHit record how keys were established (TicketHit
	// is meaningful for HS0RTT only).
	Policy    HandshakePolicy
	TicketHit bool
	// Start/Ready bracket connection setup: Dial call to app-traffic
	// admission (transport + key exchange).
	Start, Ready sim.Time
	// Issue sends one request on the connection; responses arrive via
	// the Dial callback. Close tears the client endpoint down.
	Issue func(reqID uint64, size, respSize int)
	Close func()
}

// Dialer opens short-lived connections against one echo server,
// running the configured key exchange over the fabric before any app
// byte flows. One Dialer owns the server side for its whole world.
type Dialer struct {
	w      *World
	wr     wiring
	policy HandshakePolicy
	echo   echoServer

	// Resolver is the dcdns instance serving the server's SMT-ticket
	// (HS0RTT); exported so the churn experiment reads its counters.
	Resolver *dcdns.Resolver
	serverID *handshake.Identity

	// smtSrv is an SMT stack's server socket, and pending routes each
	// flight arriving there to its exchange's conduit by the client half
	// of the 4-tuple (both nil otherwise).
	smtSrv  *core.Socket
	pending map[hsKey]*conduit

	// srvConns holds an encrypted TCP-family stack's accepted
	// connections until their dial's key exchange starts (nil
	// otherwise).
	srvConns map[hsKey]*tcpsim.Conn

	// resumption master secrets by client host address (HSResume).
	resumption map[uint32][]byte

	nextThread    int
	nextSrvThread int

	// Dials/Established/Failed count connection outcomes; HsCliCPU and
	// HsSrvCPU accumulate Table 2 handshake CPU at each side.
	Dials, Established, Failed uint64
	HsCliCPU, HsSrvCPU         sim.Time
}

// NewDialer wires the server side of a dialed echo service for spec
// on w.Server and returns a Dialer for its clients; a spec the stack
// matrix cannot express fails with BuildFabric's error. onResp fires on
// the dialing client's host when a response for (conn-scoped) reqID
// arrives — response routing is per connection, installed at Dial.
func NewDialer(w *World, spec StackSpec, cfg DialConfig) (*Dialer, error) {
	wr, err := resolve(spec)
	if err != nil {
		return nil, err
	}
	d := &Dialer{
		w: w, wr: wr, policy: cfg.Policy,
		echo:       echoServer{w: w, host: w.Server},
		resumption: make(map[uint32][]byte),
	}
	if err := d.validatePolicy(); err != nil {
		return nil, err
	}
	wr.declare(w)
	if d.policy != HSNone {
		id, err := handshake.NewIdentityRand(w.Eng.Rand())
		if err != nil {
			return nil, fmt.Errorf("dial %s: server identity: %w", wr.name, err)
		}
		d.serverID = id
		d.Resolver = dcdns.New(w.Eng, cfg.TicketTTL)
		if err := d.Resolver.Register(dialService, id); err != nil {
			return nil, fmt.Errorf("dial %s: %w", wr.name, err)
		}
	}
	if wr.msg != nil {
		d.setupHomaServer()
	} else {
		d.setupTCPServer()
	}
	return d, nil
}

// validatePolicy rejects policy × stack combinations that have no
// meaning (a plaintext stack cannot run an exchange; SMT's 0-RTT
// ticket path is transport-integrated, the TCP family resumes).
func (d *Dialer) validatePolicy() error {
	switch {
	case !d.wr.encrypted:
		if d.policy != HSNone {
			return fmt.Errorf("dial %s: plaintext stack cannot use policy %v", d.wr.name, d.policy)
		}
	case d.wr.msg != nil:
		if d.policy != HS0RTT && d.policy != HS1RTT {
			return fmt.Errorf("dial %s: SMT stack supports 0rtt/1rtt, not %v", d.wr.name, d.policy)
		}
	default:
		if d.policy != HSResume && d.policy != HS1RTT {
			return fmt.Errorf("dial %s: stream stack supports resume/1rtt, not %v", d.wr.name, d.policy)
		}
	}
	return nil
}

func (d *Dialer) setupHomaServer() {
	srv := d.wr.listen(d.w, d.w.Server, 0, false, nil, d.echo.serve)
	if smt, ok := srv.(*core.Socket); ok {
		d.smtSrv, d.pending = smt, make(map[hsKey]*conduit)
		smt.OnHandshake(func(src uint32, srcPort uint16, flight []byte) {
			if flights := d.pending[hsKey{src, srcPort}]; flights != nil {
				flights.toSrv.feed(len(flight))
			}
		})
	}
}

func (d *Dialer) setupTCPServer() {
	if d.wr.rec != nil {
		d.srvConns = make(map[hsKey]*tcpsim.Conn)
	}
	// Dialed connections start plaintext (nil codec factory) and get
	// their negotiated codec installed when the exchange completes; no
	// stream data flows before that.
	tcpsim.Listen(d.w.Server, serverPortK, tcpsim.Config{}, nil, func() int {
		t := d.nextSrvThread
		d.nextSrvThread = (d.nextSrvThread + 1) % AppThreads
		return t
	}, func(c *tcpsim.Conn) {
		if d.srvConns != nil {
			d.srvConns[hsKey{c.PeerAddr(), c.PeerPort()}] = c
		}
		c.OnMessage(func(m []byte) {
			d.w.checkDelivery(m)
			d.echo.serve(m, c.AppThread(), replyTo{conn: c})
		})
	})
}

// exchangeOptions assembles the Options for one dialed connection and
// reports whether the dcdns lookup hit (HS0RTT). The resolver re-mints
// expired tickets (counted as a miss), so the exchange always has a
// valid ticket to run against.
func (d *Dialer) exchangeOptions(client *cpusim.Host, cliThread int) (handshake.Options, bool, error) {
	opts := handshake.Options{
		ServerID:  d.serverID,
		CliThread: cliThread, SrvThread: d.nextSrvThread,
	}
	d.nextSrvThread = (d.nextSrvThread + 1) % AppThreads
	hit := false
	switch d.policy {
	case HS1RTT:
		opts.Mode = handshake.Init1RTT
	case HS0RTT:
		tk, h, err := d.Resolver.Query(dialService)
		if err != nil {
			return opts, false, err
		}
		hit = h
		opts.Mode = handshake.Init0RTT
		opts.Ticket = tk
		opts.PreGeneratedKeys = true
	case HSResume:
		if prior := d.resumption[client.Addr]; prior != nil {
			opts.Mode = handshake.Rsmp
			opts.PriorSecret = prior
			opts.PreGeneratedKeys = true
		} else {
			opts.Mode = handshake.Init1RTT // bootstrap; caches Master below
		}
	}
	return opts, hit, nil
}

func (d *Dialer) noteResult(client *cpusim.Host, res handshake.Result) {
	d.HsCliCPU += res.CliCPU
	d.HsSrvCPU += res.SrvCPU
	if res.Err == nil && res.Master != nil {
		d.resumption[client.Addr] = res.Master
	}
}

// Dial opens one connection from client. onResp fires for each echo
// response on the connection; onReady fires once the connection can
// carry app traffic (conn.Ready set), or with err on failure. The
// returned DialedConn is only usable inside onReady.
func (d *Dialer) Dial(client *cpusim.Host, onResp func(reqID uint64), onReady func(conn *DialedConn, err error)) {
	d.Dials++
	start := d.w.Eng.Now()
	thread := d.nextThread
	d.nextThread = (d.nextThread + 1) % AppThreads
	conn := &DialedConn{Policy: d.policy, Start: start}
	ready := func(err error) {
		if err != nil {
			d.Failed++
			onReady(nil, err)
			return
		}
		d.Established++
		conn.Ready = d.w.Eng.Now()
		onReady(conn, nil)
	}
	if d.wr.msg != nil {
		d.dialHoma(client, thread, conn, onResp, ready)
	} else {
		d.dialTCP(client, thread, conn, onResp, ready)
	}
}

func (d *Dialer) dialHoma(client *cpusim.Host, thread int, conn *DialedConn, onResp func(uint64), ready func(error)) {
	cli := d.wr.msg.open(client, homa.Config{})
	cli.OnMessage(func(dv homa.Delivery) {
		d.w.checkDelivery(dv.Payload)
		if id, _, err := rpc.Decode(dv.Payload); err == nil {
			onResp(id)
		}
	})
	conn.Issue = func(reqID uint64, size, respSize int) {
		d.echo.encBuf = rpc.AppendEncode(d.echo.encBuf, reqID, uint32(respSize), size)
		cli.Send(d.w.Server.Addr, ServerPort, d.echo.encBuf, thread)
	}
	conn.Close = cli.Close
	if d.smtSrv == nil {
		ready(nil) // plain Homa is connectionless: usable immediately
		return
	}
	smtCli := cli.(*core.Socket)
	opts, hit, err := d.exchangeOptions(client, thread)
	if err != nil {
		ready(err)
		return
	}
	conn.TicketHit = hit
	k := hsKey{client.Addr, smtCli.Port()}
	flights := &conduit{
		sendSrv: func(flight []byte) { smtCli.SendHandshake(d.w.Server.Addr, ServerPort, flight, 0) },
		sendCli: func(flight []byte) { d.smtSrv.SendHandshake(k.addr, k.port, flight, 0) },
	}
	smtCli.OnHandshake(func(_ uint32, _ uint16, flight []byte) { flights.toCli.feed(len(flight)) })
	d.pending[k] = flights
	err = handshake.ExchangeOver(flights, client, d.w.Server, opts, func(res handshake.Result) {
		delete(d.pending, k)
		d.noteResult(client, res)
		if res.Err != nil {
			ready(res.Err)
			return
		}
		if _, err := smtCli.RegisterSession(d.w.Server.Addr, ServerPort, res.Client); err != nil {
			ready(err)
			return
		}
		if _, err := d.smtSrv.RegisterSession(k.addr, k.port, res.Server); err != nil {
			ready(err)
			return
		}
		ready(nil)
	})
	if err != nil {
		ready(err)
	}
}

func (d *Dialer) dialTCP(client *cpusim.Host, thread int, conn *DialedConn, onResp func(uint64), ready func(error)) {
	c := tcpsim.Dial(client, thread, tcpsim.Config{}, nil, d.w.Server.Addr, serverPortK, func(cliConn *tcpsim.Conn) {
		if d.wr.rec == nil {
			ready(nil)
			return
		}
		k := hsKey{client.Addr, cliConn.LocalPort()}
		srvConn := d.srvConns[k]
		delete(d.srvConns, k)
		if srvConn == nil {
			ready(fmt.Errorf("dial %s: SYN-ACK with no accepted server conn", d.wr.name))
			return
		}
		opts, _, err := d.exchangeOptions(client, cliConn.AppThread())
		if err != nil {
			ready(err)
			return
		}
		opts.SrvThread = srvConn.AppThread()
		flights := &conduit{sendSrv: cliConn.SendHandshake, sendCli: srvConn.SendHandshake}
		cliConn.OnHandshake(func(flight []byte) { flights.toCli.feed(len(flight)) })
		srvConn.OnHandshake(func(flight []byte) { flights.toSrv.feed(len(flight)) })
		err = handshake.ExchangeOver(flights, client, d.w.Server, opts, func(res handshake.Result) {
			d.noteResult(client, res)
			if res.Err != nil {
				ready(res.Err)
				return
			}
			if err := installStreamCodecs(d.w, d.wr.rec, cliConn, srvConn, res); err != nil {
				ready(err)
				return
			}
			ready(nil)
		})
		if err != nil {
			ready(err)
		}
	})
	c.OnMessage(func(m []byte) {
		d.w.checkDelivery(m)
		if id, _, err := rpc.Decode(m); err == nil {
			onResp(id)
		}
	})
	conn.Issue = func(reqID uint64, size, respSize int) {
		d.echo.encBuf = rpc.AppendEncode(d.echo.encBuf, reqID, uint32(respSize), size)
		c.SendMessage(d.echo.encBuf)
	}
	conn.Close = c.Close
}
