package experiments

import (
	"smt/internal/cpusim"
	"smt/internal/kvstore"
	"smt/internal/rpc"
	"smt/internal/sim"
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

// MeasureRedis runs one (stack, workload, value size) cell of Figure 8:
// a kvstore server behind the stack's listen, driven by one client
// endpoint with streams closed-loop streams. The server is
// single-threaded, exactly like Redis: the listener delivers every
// request to app thread 0, and all request parsing, DB work, response
// building and the send-path costs (including software crypto) run
// there. A spec the stack matrix cannot express fails with
// BuildFabric's error.
func MeasureRedis(spec StackSpec, w8 ycsb.Workload, valueSize, streams int, seed int64, pa ...*pointAudit) (Fig8Row, error) {
	wr, err := resolve(spec)
	if err != nil {
		return Fig8Row{}, err
	}
	w := audited(NewWorld(seed), pa)
	gen := ycsb.New(w8, fig8Keys, seed)
	gen.MaxScanLen = 20
	wr.declare(w)
	kv := &kvServer{host: w.Server, store: kvstore.New(w.CM, fig8Keys, valueSize)}
	srv := wr.listen(w, w.Server, 0, false, []int{0}, kv.serve)
	var cl *rpc.ClosedLoop
	send, err := wr.connect(w, w.Client, w.Server, srv, streams, 0, false, 31, func(id uint64) { cl.Done(id) })
	if err != nil {
		return Fig8Row{}, err
	}
	wr.establish(w)
	value := make([]byte, valueSize)
	// reqBuf is the world's request scratch: the transports read a
	// request only during the send call (see echoServer.encBuf).
	var reqBuf []byte
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
		reqBuf = kvstore.EncodeRequest(rpc.AppendHeader(reqBuf[:0], reqID, 0), req)
		send(stream, reqBuf)
	})
	start := w.Eng.Now()
	warm := start + 5*sim.Millisecond
	stop := start + 30*sim.Millisecond
	cl.Start(streams, warm, stop)
	w.Eng.RunUntil(stop)
	cl.Stop()
	return Fig8Row{System: wr.name, Workload: w8, Value: valueSize, OpsPerSec: cl.Throughput()}, nil
}

// kvServer is the Redis analog behind MeasureRedis's listen. Each
// request runs against the store when it arrives; its CPU is charged on
// the app thread it was delivered to, and the charge's completion, a
// pooled kvReply, sends the response.
type kvServer struct {
	host  *cpusim.Host
	store *kvstore.Store
	free  []*kvReply
}

// kvReply is one response waiting for its CPU charge: the RPC header
// and the store's response, in a buffer the reply keeps across uses.
type kvReply struct {
	s      *kvServer
	buf    []byte
	thread int
	to     replyTo
}

// serve answers the request m delivered on thread.
func (s *kvServer) serve(m []byte, thread int, to replyTo) {
	id, _, err := rpc.Decode(m)
	if err != nil {
		return
	}
	req, err := kvstore.DecodeRequest(m[rpc.MinSize:])
	if err != nil {
		return
	}
	var r *kvReply
	if l := len(s.free); l > 0 {
		r = s.free[l-1]
		s.free = s.free[:l-1]
	} else {
		//smt:coldpath -- kvReply free-list refill; steady state reuses pooled replies
		r = &kvReply{s: s}
	}
	var cpu sim.Time
	r.buf, cpu = s.store.Execute(rpc.AppendHeader(r.buf[:0], id, 0), req)
	r.thread, r.to = thread, to
	s.host.App[thread%len(s.host.App)].AcquireAction(cpu, r)
}

// Run implements sim.Action.
func (r *kvReply) Run() {
	r.to.send(r.buf, r.thread)
	r.to = replyTo{}
	r.s.free = append(r.s.free, r)
}
