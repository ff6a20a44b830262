package main

import (
	"fmt"
	"runtime"
	"time"

	"smt/internal/core"
	"smt/internal/cost"
	"smt/internal/cpusim"
	"smt/internal/experiments"
	"smt/internal/handshake"
	"smt/internal/homa"
	"smt/internal/ktls"
	"smt/internal/netsim"
	"smt/internal/nicsim"
	"smt/internal/sim"
	"smt/internal/tcpsim"
	"smt/internal/tlsrec"
	"smt/internal/wire"
)

// The ladder times calls into each layer's public functions. Every
// probe builds its state, times one cold call, warms up with one batch,
// then reports the median of ladderBatches batches of a fixed number of
// calls. Probes that hand closures or Actions to the engine keep their
// state in locals or struct fields: a callback that wrote a
// package-level variable would break the engine-confinement rule the
// simulator's own code follows.

const ladderBatches = 5

// probe is one ladder entry. It reports <name>_<unit> per call, plus
// <name>_allocs and <name>_bytes when asked.
type probe struct {
	name   string
	unit   string // "ns" or "us"
	iters  int
	allocs bool
	bytes  bool
	// build prepares the probe's state and returns the call to time.
	build func() (func() error, error)
}

// coldWarm sets a probe's first call beside its warmed-up median.
type coldWarm struct {
	ColdNs     float64 `json:"cold_ns"`
	ColdAllocs float64 `json:"cold_allocs"`
	WarmNs     float64 `json:"warm_ns"`
	WarmAllocs float64 `json:"warm_allocs"`
	WarmBytes  float64 `json:"warm_bytes"`
}

type ladderResult struct {
	metrics map[string]metric
	cold    map[string]coldWarm
}

// batchCost times n calls of op and returns per-call ns, allocations and
// bytes.
func batchCost(op func() error, n int) (ns, allocs, bytes float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := op(); err != nil {
			return 0, 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed.Nanoseconds()) / float64(n),
		float64(m1.Mallocs-m0.Mallocs) / float64(n),
		float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n), nil
}

// runLadder runs every probe; onProbe records each probe's span.
func runLadder(onProbe func(name string, start, end time.Time)) (*ladderResult, error) {
	res := &ladderResult{metrics: map[string]metric{}, cold: map[string]coldWarm{}}
	for _, p := range probes() {
		start := time.Now()
		op, err := p.build()
		if err != nil {
			return nil, fmt.Errorf("ladder %s: %w", p.name, err)
		}
		runtime.GC()
		coldNs, coldAllocs, _, err := batchCost(op, 1)
		if err != nil {
			return nil, fmt.Errorf("ladder %s: %w", p.name, err)
		}
		if _, _, _, err := batchCost(op, p.iters); err != nil {
			return nil, fmt.Errorf("ladder %s: %w", p.name, err)
		}
		var ns, allocs, bytes []float64
		for b := 0; b < ladderBatches; b++ {
			n, a, by, err := batchCost(op, p.iters)
			if err != nil {
				return nil, fmt.Errorf("ladder %s: %w", p.name, err)
			}
			ns, allocs, bytes = append(ns, n), append(allocs, a), append(bytes, by)
		}
		onProbe(p.name, start, time.Now())
		cw := coldWarm{ColdNs: coldNs, ColdAllocs: coldAllocs, WarmNs: median(ns), WarmAllocs: median(allocs), WarmBytes: median(bytes)}
		res.cold[p.name] = cw
		t := cw.WarmNs
		if p.unit == "us" {
			t /= 1e3
		}
		res.metrics[p.name+"_"+p.unit] = metric{t, p.unit}
		if p.allocs {
			res.metrics[p.name+"_allocs"] = metric{cw.WarmAllocs, "count"}
		}
		if p.bytes {
			res.metrics[p.name+"_bytes"] = metric{cw.WarmBytes, "B"}
		}
	}
	return res, nil
}

func probes() []probe {
	return []probe{
		{name: "sim.post_run", unit: "ns", iters: 100000, allocs: true, build: probePostRun},
		{name: "sim.churn_10k", unit: "ns", iters: 100000, build: probeChurn10k},
		{name: "sim.reset_stop", unit: "ns", iters: 100000, build: probeResetStop},
		{name: "netsim.pool_cycle", unit: "ns", iters: 100000, allocs: true, build: probePoolCycle},
		{name: "netsim.deliver_switched", unit: "ns", iters: 20000, build: probeDeliverSwitched},
		{name: "nicsim.tso_64k", unit: "ns", iters: 1000, allocs: true, build: probeTSO64k},
		{name: "cpusim.run_app", unit: "ns", iters: 100000, build: probeRunApp},
		{name: "tlsrec.seal_16k", unit: "ns", iters: 2000, build: probeSeal16k},
		{name: "tlsrec.open_16k", unit: "ns", iters: 2000, build: probeOpen16k},
		{name: "core.encode_64k", unit: "ns", iters: 1000, allocs: true, build: probeEncode(64<<10, false)},
		{name: "core.encode_hw_64k", unit: "ns", iters: 2000, build: probeEncode(64<<10, true)},
		{name: "core.decode_64k", unit: "ns", iters: 1000, build: probeDecode64k},
		{name: "core.encode_64", unit: "ns", iters: 20000, build: probeEncode(64, false)},
		{name: "ktls.encode_16k", unit: "ns", iters: 2000, build: probeKTLSEncode},
		{name: "ktls.decode_16k", unit: "ns", iters: 2000, build: probeKTLSDecode},
		{name: "homa.echo_64", unit: "ns", iters: 2000, build: probeHomaEcho(64)},
		{name: "homa.echo_64k", unit: "ns", iters: 200, bytes: true, build: probeHomaEcho(64 << 10)},
		{name: "tcpsim.echo_64", unit: "ns", iters: 2000, build: probeTCPEcho(64)},
		{name: "tcpsim.echo_64k", unit: "ns", iters: 200, bytes: true, build: probeTCPEcho(64 << 10)},
		{name: "handshake.exchange_1rtt", unit: "us", iters: 20, build: probeExchange(false)},
		{name: "handshake.exchange_0rtt", unit: "us", iters: 20, build: probeExchange(true)},
		{name: "experiments.world_5h", unit: "us", iters: 200, build: probeWorld(5)},
		{name: "experiments.world_64h", unit: "us", iters: 20, build: probeWorld(64)},
		{name: "experiments.setup_ktls_sw_5h", unit: "us", iters: 20, build: probeFabricSetup("kTLS-sw")},
		{name: "experiments.setup_smt_hw_5h", unit: "us", iters: 20, build: probeFabricSetup("SMT-hw")},
	}
}

// pattern is a deterministic payload of n bytes.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + 7)
	}
	return b
}

// keyMaterial is fixed AES-128-GCM key material for the codec probes.
func keyMaterial(salt byte) (key, iv []byte) {
	key, iv = make([]byte, tlsrec.Key128), make([]byte, wire.GCMNonceLen)
	for i := range key {
		key[i] = salt ^ byte(i*13+7)
	}
	for i := range iv {
		iv[i] = salt ^ byte(i*29+3)
	}
	return key, iv
}

// twoHosts is a back-to-back world of two hosts at addresses 1 and 2.
func twoHosts() (*sim.Engine, *netsim.Network, *cpusim.Host, *cpusim.Host) {
	eng := sim.NewEngine(1)
	cm := cost.Default()
	net := netsim.New(eng, cm)
	return eng, net, cpusim.NewHost(eng, cm, net, 1, 4, 12), cpusim.NewHost(eng, cm, net, 2, 4, 12)
}

// counter is a no-op Action.
type counter struct{ n int }

func (c *counter) Run() { c.n++ }

func probePostRun() (func() error, error) {
	eng := sim.NewEngine(1)
	a := &counter{}
	return func() error {
		eng.PostActionAfter(1, a)
		eng.RunUntil(eng.Now() + 1)
		return nil
	}, nil
}

// repost re-schedules itself one horizon ahead every time it fires,
// holding the engine's pending depth constant.
type repost struct {
	eng     *sim.Engine
	horizon sim.Time
}

func (r *repost) Run() { r.eng.PostActionAfter(r.horizon, r) }

func probeChurn10k() (func() error, error) {
	const depth, gap = 10000, 100
	eng := sim.NewEngine(1)
	r := &repost{eng: eng, horizon: depth * gap}
	for i := 0; i < depth; i++ {
		eng.PostAction(sim.Time(i*gap), r)
	}
	return func() error {
		eng.RunUntil(eng.Now() + gap)
		if eng.Pending() != depth {
			return fmt.Errorf("pending %d, want %d", eng.Pending(), depth)
		}
		return nil
	}, nil
}

func probeResetStop() (func() error, error) {
	eng := sim.NewEngine(1)
	var tm sim.Timer
	fn := func() {}
	return func() error {
		eng.ResetAfter(&tm, 1000, fn)
		tm.Stop()
		return nil
	}, nil
}

func probePoolCycle() (func() error, error) {
	net := netsim.New(sim.NewEngine(1), cost.Default())
	buf := pattern(wire.DefaultMTU)
	return func() error {
		p := net.AcquirePacket()
		p.SetPayload(buf)
		p.Release()
		return nil
	}, nil
}

func probeDeliverSwitched() (func() error, error) {
	eng := sim.NewEngine(1)
	net := netsim.Topology{Hosts: 2, Switch: &netsim.SwitchConfig{}}.Build(eng, cost.Default())
	got := 0
	net.Attach(2, func(p *wire.Packet) { got++; p.Release() })
	buf := pattern(wire.DefaultMTU - wire.IPv4HeaderLen - wire.OverlayHeaderLen)
	return func() error {
		p := net.AcquirePacket()
		p.IP = wire.IPv4Header{TTL: 64, Protocol: wire.ProtoHoma, Src: 1, Dst: 2}
		p.SetPayload(buf)
		want := got + 1
		net.Deliver(p)
		eng.Run()
		if got != want {
			return fmt.Errorf("packet not delivered")
		}
		return nil
	}, nil
}

func probeTSO64k() (func() error, error) {
	eng := sim.NewEngine(1)
	cm := cost.Default()
	net := netsim.New(eng, cm)
	nic := nicsim.New(eng, cm, net, 1, 1)
	got := 0
	net.Attach(2, func(p *wire.Packet) { got += len(p.Payload); p.Release() })
	payload := pattern(64 << 10)
	// A non-nil Release selects the copying TSO cut of write-once
	// scratch, the mode the codecs use.
	seg := &nicsim.TxSegment{MTU: wire.DefaultMTU, Release: func() {}}
	return func() error {
		pkt := nic.AcquirePacket()
		pkt.IP = wire.IPv4Header{TTL: 64, Protocol: wire.ProtoHoma, Src: 1, Dst: 2}
		pkt.Overlay = wire.OverlayHeader{SrcPort: 9, DstPort: 10, Type: wire.TypeData, MsgLen: uint32(len(payload))}
		pkt.Payload = payload
		seg.Pkt = pkt
		got = 0
		nic.SendSegment(0, seg)
		eng.Run()
		if got != len(payload) {
			return fmt.Errorf("%d of %d bytes delivered", got, len(payload))
		}
		return nil
	}, nil
}

func probeRunApp() (func() error, error) {
	eng, _, host, _ := twoHosts()
	ran := 0
	fn := func() { ran++ }
	return func() error {
		host.RunApp(0, 100, fn)
		eng.RunUntil(eng.Now() + 100)
		return nil
	}, nil
}

func probeSeal16k() (func() error, error) {
	key, iv := keyMaterial(1)
	a, err := tlsrec.NewAEAD(key, iv)
	if err != nil {
		return nil, err
	}
	plain := pattern(wire.MaxTLSRecord)
	var buf []byte
	var seq uint64
	return func() error {
		var err error
		buf, err = a.SealRecord(buf[:0], seq, wire.RecordTypeApplicationData, plain, 0)
		seq++
		return err
	}, nil
}

func probeOpen16k() (func() error, error) {
	key, iv := keyMaterial(1)
	a, err := tlsrec.NewAEAD(key, iv)
	if err != nil {
		return nil, err
	}
	rec, err := a.SealRecord(nil, 7, wire.RecordTypeApplicationData, pattern(wire.MaxTLSRecord), 0)
	if err != nil {
		return nil, err
	}
	var out []byte
	return func() error {
		var err error
		out, _, err = a.OpenRecordTo(out[:0], 7, rec)
		return err
	}, nil
}

// codecPair builds mirrored SMT codecs; hw selects the NIC-offload
// transmit layout for the encoder.
func codecPair(hw bool) (enc, dec *core.Codec, err error) {
	key, iv := keyMaterial(9)
	keys := core.SessionKeys{TxKey: key, TxIV: iv, RxKey: key, RxIV: iv}
	cm := cost.Default()
	if enc, err = core.NewCodec(cm, keys, tlsrec.DefaultAllocation, hw, 0, 0); err != nil {
		return nil, nil, err
	}
	if dec, err = core.NewCodec(cm, keys, tlsrec.DefaultAllocation, false, 0, 0); err != nil {
		return nil, nil, err
	}
	return enc, dec, nil
}

// probeEncode times encoding one segment of n message bytes (capped at
// the codec's segment span, one full TSO segment).
func probeEncode(n int, hw bool) func() (func() error, error) {
	return func() (func() error, error) {
		enc, _, err := codecPair(hw)
		if err != nil {
			return nil, err
		}
		msg := pattern(min(n, enc.SegSpan()))
		return func() error {
			seg, _ := enc.Encode(0, msg, 0, len(msg), 0, false)
			seg.Release()
			return nil
		}, nil
	}
}

func probeDecode64k() (func() error, error) {
	enc, dec, err := codecPair(false)
	if err != nil {
		return nil, err
	}
	msg := pattern(enc.SegSpan())
	seg, _ := enc.Encode(0, msg, 0, len(msg), 0, false)
	payload := append([]byte(nil), seg.Payload...)
	seg.Release()
	return func() error {
		_, _, err := dec.Decode(0, len(msg), 0, payload)
		return err
	}, nil
}

func probeKTLSEncode() (func() error, error) {
	cli, _ := ktls.PairKeys(5)
	c, err := ktls.New(cost.Default(), ktls.ModeKTLSSW, cli)
	if err != nil {
		return nil, err
	}
	data := pattern(ktls.RecPlain)
	return func() error {
		if chunks, _ := c.EncodeStream(data); len(chunks) != 1 {
			return fmt.Errorf("%d records, want 1", len(chunks))
		}
		return nil
	}, nil
}

// probeKTLSDecode opens a ring of pre-sealed records in sequence order;
// when the ring wraps, a fresh decoder restarts the sequence at 0 (one
// key schedule per 256 records).
func probeKTLSDecode() (func() error, error) {
	const ring = 256
	cli, srv := ktls.PairKeys(5)
	cm := cost.Default()
	enc, err := ktls.New(cm, ktls.ModeKTLSSW, cli)
	if err != nil {
		return nil, err
	}
	data := pattern(ktls.RecPlain)
	recs := make([][]byte, ring)
	for i := range recs {
		chunks, _ := enc.EncodeStream(data)
		recs[i] = chunks[0].Bytes
	}
	var dec *ktls.Codec
	next := ring
	return func() error {
		if next == ring {
			var err error
			if dec, err = ktls.New(cm, ktls.ModeKTLSSW, srv); err != nil {
				return err
			}
			next = 0
		}
		out, _, err := dec.DecodeStream(recs[next])
		next++
		if err == nil && len(out) != len(data) {
			err = fmt.Errorf("decoded %d bytes, want %d", len(out), len(data))
		}
		return err
	}, nil
}

// runUntilDone advances eng until *done or a virtual-time limit.
func runUntilDone(eng *sim.Engine, done *bool) error {
	limit := eng.Now() + 100*sim.Millisecond
	for !*done {
		if eng.Now() >= limit {
			return fmt.Errorf("no echo within 100 ms of virtual time")
		}
		eng.RunUntil(eng.Now() + 10*sim.Microsecond)
	}
	return nil
}

// probeHomaEcho times one plain-socket round trip of an n-byte message.
func probeHomaEcho(n int) func() (func() error, error) {
	return func() (func() error, error) {
		eng, _, a, b := twoHosts()
		srv := homa.NewSocket(b, homa.Config{Port: 100}, nil)
		srv.OnMessage(func(d homa.Delivery) { srv.Send(d.Src, d.SrcPort, d.Payload, d.AppThread) })
		cli := homa.NewSocket(a, homa.Config{}, nil)
		done := false
		cli.OnMessage(func(homa.Delivery) { done = true })
		msg := pattern(n)
		return func() error {
			done = false
			cli.Send(b.Addr, 100, msg, 0)
			return runUntilDone(eng, &done)
		}, nil
	}
}

// probeTCPEcho times one round trip of an n-byte message on an
// established plain connection.
func probeTCPEcho(n int) func() (func() error, error) {
	return func() (func() error, error) {
		eng, _, a, b := twoHosts()
		tcpsim.Listen(b, 80, tcpsim.Config{}, nil, nil, func(c *tcpsim.Conn) {
			c.OnMessage(func(m []byte) { c.SendMessage(m) })
		})
		established := false
		cli := tcpsim.Dial(a, 0, tcpsim.Config{}, nil, b.Addr, 80, func(*tcpsim.Conn) { established = true })
		if err := runUntilDone(eng, &established); err != nil {
			return nil, fmt.Errorf("connect: %w", err)
		}
		done := false
		cli.OnMessage(func([]byte) { done = true })
		msg := pattern(n)
		return func() error {
			done = false
			cli.SendMessage(msg)
			return runUntilDone(eng, &done)
		}, nil
	}
}

// probeExchange times one key exchange with real crypto: a full 1-RTT
// handshake, or 0-RTT against the server's SMT-ticket as churn dials it.
func probeExchange(zeroRTT bool) func() (func() error, error) {
	return func() (func() error, error) {
		eng, _, cli, srv := twoHosts()
		id, err := handshake.NewIdentityRand(eng.Rand())
		if err != nil {
			return nil, err
		}
		opts := handshake.Options{Mode: handshake.Init1RTT, ServerID: id}
		if zeroRTT {
			tk, err := handshake.NewTicket(id, sim.Time(1<<62))
			if err != nil {
				return nil, err
			}
			opts = handshake.Options{Mode: handshake.Init0RTT, ServerID: id, Ticket: tk, PreGeneratedKeys: true, ShortChain: true}
		}
		return func() error {
			var res handshake.Result
			done := false
			if err := handshake.Exchange(cli, srv, 2*sim.Microsecond, opts, func(r handshake.Result) { res, done = r, true }); err != nil {
				return err
			}
			if err := runUntilDone(eng, &done); err != nil {
				return err
			}
			return res.Err
		}, nil
	}
}

// probeWorld times building an n-host switched fabric world.
func probeWorld(hosts int) func() (func() error, error) {
	return func() (func() error, error) {
		return func() error {
			experiments.NewFabricWorld(1, fabricTopology(hosts-1))
			return nil
		}, nil
	}
}

// probeFabricSetup times building a 5-host fabric world and wiring the
// named stack with loadsweep's stream fan-out.
func probeFabricSetup(stack string) func() (func() error, error) {
	return func() (func() error, error) {
		spec, ok := experiments.LookupStack(stack)
		if !ok {
			return nil, fmt.Errorf("unknown stack %s", stack)
		}
		sys, err := experiments.BuildFabric(spec)
		if err != nil {
			return nil, err
		}
		cfg := experiments.FabricConfig{StreamsPerClient: experiments.LoadSweepStreams, MTU: wire.DefaultMTU}
		return func() error {
			w := experiments.NewFabricWorld(1, fabricTopology(4))
			_, err := sys.Setup(w, w.ClientHosts(), w.Server, cfg, noFabricDone)
			return err
		}, nil
	}
}
