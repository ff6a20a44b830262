package experiments

import (
	"fmt"

	"smt/internal/homa"
	"smt/internal/kvstore"
	"smt/internal/rpc"
	"smt/internal/sim"
	"smt/internal/tcpsim"
	"smt/internal/ycsb"
)

// Fig8Row is one (system, workload, value size) Redis throughput point.
type Fig8Row struct {
	System    string
	Workload  ycsb.Workload
	Value     int
	OpsPerSec float64
}

// fig8Keys is the database size for the YCSB runs.
const fig8Keys = 10000

// Fig8Values and Fig8Workloads are the Figure 8 sweep grid.
var (
	Fig8Values    = []int{64, 1024, 4096}
	Fig8Workloads = []ycsb.Workload{
		ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadC, ycsb.WorkloadD, ycsb.WorkloadE,
	}
)

// redisSystem wires a kvstore server behind a transport. The server is
// single-threaded (app thread 0 on the server host), exactly like Redis:
// all request parsing, DB work, response building and the send-path
// costs (including software crypto) run there. Like FabricSystem it is
// composed from a StackSpec — BuildRedis runs redisOverMsg or
// redisOverTCP over the spec's resolved wiring.
type redisSystem struct {
	name  string
	setup func(w *World, streams, valueSize int, done func(reqID uint64, resp []byte)) (func(stream int, reqID uint64, req []byte), error)
}

// kvWrap embeds a request id ahead of the kvstore request.
func kvWrap(reqID uint64, req []byte) []byte {
	return append(rpc.Encode(reqID, 0, rpc.MinSize), req...)
}

func kvUnwrap(m []byte) (uint64, []byte, bool) {
	id, _, err := rpc.Decode(m)
	if err != nil || len(m) < rpc.MinSize {
		return 0, nil, false
	}
	return id, m[rpc.MinSize:], true
}

// BuildRedis composes the §5.3 Redis harness for a spec from the same
// resolved wiring as BuildFabric: bytestream record layers plug into
// the TCP wiring, the message transport carries plain Homa or SMT
// records, and inexpressible combinations return resolve's errors.
func BuildRedis(spec StackSpec) (redisSystem, error) {
	wr, err := resolve(spec)
	if err != nil {
		return redisSystem{}, err
	}
	setup := redisOverTCP
	if wr.msg != nil {
		setup = redisOverMsg
	}
	return redisSystem{name: wr.name, setup: func(w *World, streams, valueSize int, done func(uint64, []byte)) (func(int, uint64, []byte), error) {
		wr.declare(w)
		return setup(wr, w, streams, valueSize, done)
	}}, nil
}

// redisOverMsg wires the kvstore behind a message-transport stack: a
// server socket delivering into thread 0 and one client socket,
// pre-paired with it.
func redisOverMsg(wr wiring, w *World, streams, valueSize int, done func(uint64, []byte)) (func(int, uint64, []byte), error) {
	store := kvstore.New(w.CM, fig8Keys, valueSize)
	srv := wr.msg.open(w.Server, homa.Config{Port: ServerPort, AppThreads: []int{0}})
	srv.OnMessage(func(d homa.Delivery) {
		id, body, ok := kvUnwrap(d.Payload)
		if !ok {
			return
		}
		req, err := kvstore.DecodeRequest(body)
		if err != nil {
			return
		}
		resp, cpu := store.Execute(req)
		// Single-threaded server: everything on thread 0.
		w.Server.RunApp(0, cpu, func() {
			srv.Send(d.Src, d.SrcPort, kvWrap(id, resp), 0)
		})
	})
	cli := wr.msg.open(w.Client, homa.Config{})
	cli.OnMessage(func(d homa.Delivery) {
		if id, body, ok := kvUnwrap(d.Payload); ok {
			done(id, body)
		}
	})
	if err := wr.msg.pair(cli, srv, 31); err != nil {
		return nil, fmt.Errorf("%s: pair sessions: %w", wr.name, err)
	}
	return func(stream int, reqID uint64, req []byte) {
		cli.Send(ServerAddr, ServerPort, kvWrap(reqID, req), stream%AppThreads)
	}, nil
}

// redisOverTCP wires the kvstore behind the TCP family with one
// connection per client stream, keyed per connection through the
// stack's stream record layer (plaintext when it has none).
func redisOverTCP(wr wiring, w *World, streams, valueSize int, done func(uint64, []byte)) (func(int, uint64, []byte), error) {
	store := kvstore.New(w.CM, fig8Keys, valueSize)
	tcpsim.Listen(w.Server, serverPortK, tcpsim.Config{}, wr.rec.serverCodecs(w.CM), func() int { return 0 /* single-threaded server */ }, func(c *tcpsim.Conn) {
		c.OnMessage(func(m []byte) {
			id, body, ok := kvUnwrap(m)
			if !ok {
				return
			}
			req, err := kvstore.DecodeRequest(body)
			if err != nil {
				return
			}
			resp, cpu := store.Execute(req)
			w.Server.RunApp(0, cpu, func() { c.SendMessage(kvWrap(id, resp)) })
		})
	})
	cliCodecs := wr.rec.clientCodecs(w.CM, w.Client.Addr)
	conns := make([]*tcpsim.Conn, streams)
	for i := range conns {
		c := tcpsim.Dial(w.Client, i%AppThreads, tcpsim.Config{}, cliCodecs, ServerAddr, serverPortK, nil)
		c.OnMessage(func(m []byte) {
			if id, body, ok := kvUnwrap(m); ok {
				done(id, body)
			}
		})
		conns[i] = c
	}
	w.Eng.RunUntil(w.Eng.Now() + 5*sim.Millisecond)
	return func(stream int, reqID uint64, req []byte) {
		conns[stream].SendMessage(kvWrap(reqID, req))
	}, nil
}

// MeasureRedis runs one (system, workload, value size) cell of Figure 8.
func MeasureRedis(sys redisSystem, w8 ycsb.Workload, valueSize, streams int, seed int64, pa ...*pointAudit) (Fig8Row, error) {
	w := audited(NewWorld(seed), pa)
	gen := ycsb.New(w8, fig8Keys, seed)
	gen.MaxScanLen = 20
	var cl *rpc.ClosedLoop
	issue, err := sys.setup(w, streams, valueSize, func(id uint64, resp []byte) { cl.Done(id) })
	if err != nil {
		return Fig8Row{}, err
	}
	value := make([]byte, valueSize)
	cl = rpc.NewClosedLoop(w.Eng, func(stream int, reqID uint64) {
		op := gen.Next()
		var req kvstore.Request
		switch op.Type {
		case ycsb.OpRead:
			req = kvstore.Request{Cmd: kvstore.CmdGet, Key: op.Key}
		case ycsb.OpUpdate, ycsb.OpInsert:
			req = kvstore.Request{Cmd: kvstore.CmdSet, Key: op.Key, Value: value}
		case ycsb.OpScan:
			req = kvstore.Request{Cmd: kvstore.CmdScan, Key: op.Key, ScanLen: uint16(op.ScanLen)}
		}
		issue(stream, reqID, kvstore.EncodeRequest(req))
	})
	start := w.Eng.Now()
	warm := start + 5*sim.Millisecond
	stop := start + 30*sim.Millisecond
	cl.Start(streams, warm, stop)
	w.Eng.RunUntil(stop)
	cl.Stop()
	return Fig8Row{System: sys.name, Workload: w8, Value: valueSize, OpsPerSec: cl.Throughput()}, nil
}
