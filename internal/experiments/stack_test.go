package experiments

import (
	"strings"
	"sync"
	"testing"

	"smt/internal/netsim"
	"smt/internal/rpc"
	"smt/internal/sim"
	"smt/internal/ycsb"
)

// allTransports × allRecords spans the full design-space matrix,
// including the cells BuildFabric must reject.
var (
	allTransports = []Transport{TransportTCP, TransportHoma}
	allRecords    = []RecordLayer{
		RecordPlain, RecordUserTLS, RecordKTLSSW, RecordKTLSHW,
		RecordTCPLS, RecordSMTSW, RecordSMTHW,
	}
)

// buildableCells is the runnable half of the matrix: every stream
// record layer over tcp, plain and the SMT records over homa.
var buildableCells = map[Transport]map[RecordLayer]bool{
	TransportTCP:  {RecordPlain: true, RecordUserTLS: true, RecordKTLSSW: true, RecordKTLSHW: true, RecordTCPLS: true},
	TransportHoma: {RecordPlain: true, RecordSMTSW: true, RecordSMTHW: true},
}

func TestStackCatalogue(t *testing.T) {
	want := []string{"TCP", "kTLS-sw", "kTLS-hw", "TLS", "TCPLS", "Homa", "SMT-sw", "SMT-hw"}
	stacks := Stacks()
	if len(stacks) != len(want) {
		t.Fatalf("registered %d stacks, want %d: %v", len(stacks), len(want), stacks)
	}
	for i, name := range want {
		if stacks[i].Name != name {
			t.Errorf("Stacks()[%d] = %q, want %q", i, stacks[i].Name, name)
		}
	}
	// Lookup is case-insensitive, for CLI friendliness.
	for _, q := range []string{"TCPLS", "tcpls", " smt-HW "} {
		if _, ok := LookupStack(q); !ok {
			t.Errorf("LookupStack(%q) failed", q)
		}
	}
	if _, ok := LookupStack("QUIC"); ok {
		t.Error("LookupStack(QUIC) should fail; QUIC is not modeled")
	}
	// The default lineup is the six figure systems in Fig6 order — the
	// bit-identity contract of the registry artifacts.
	lineup := DefaultLineup()
	wantLineup := []string{"TCP", "kTLS-sw", "kTLS-hw", "Homa", "SMT-sw", "SMT-hw"}
	for i, name := range wantLineup {
		if lineup[i].Name != name {
			t.Fatalf("DefaultLineup[%d] = %q, want %q", i, lineup[i].Name, name)
		}
	}
	if redis := RedisLineup(); len(redis) != 7 || redis[1].Name != "TLS" {
		t.Fatalf("RedisLineup wrong: %v", redis)
	}
}

// TestStackMatrix runs every cell of the transport × record matrix
// through all three harnesses — BuildFabric, MeasureRedis on one stream
// and NewDialer at the cell's ChurnPolicyFor — which share one resolver:
// the buildable half composes in all three and completes Redis
// operations, the rest fails in all three with the same descriptive
// error naming the stack and the record layer — never a panic, never a
// silent omission.
func TestStackMatrix(t *testing.T) {
	for _, tr := range allTransports {
		for _, rec := range allRecords {
			spec := StackSpec{Transport: tr, Record: rec}
			sys, err := BuildFabric(spec)
			redis, rerr := MeasureRedis(spec, ycsb.WorkloadB, 64, 1, 1)
			_, derr := NewDialer(NewWorld(1), spec, DialConfig{Policy: ChurnPolicyFor(spec)})
			if buildableCells[tr][rec] {
				if err != nil || rerr != nil || derr != nil {
					t.Errorf("%s × %s should build: BuildFabric %v, MeasureRedis %v, NewDialer %v", tr, rec, err, rerr, derr)
				} else if sys.Name == "" || sys.Setup == nil {
					t.Errorf("%s × %s built an empty system", tr, rec)
				} else if redis.System != spec.name() || redis.OpsPerSec <= 0 {
					t.Errorf("%s × %s: Redis row %+v, want %s completing operations", tr, rec, redis, spec.name())
				}
				// NoTSO is the message transport's software cut: a
				// bytestream stack must refuse it, not measure with TSO.
				_, nerr := MeasureRTT(sys.System(), 64, 0, true, 7)
				if tr == TransportHoma && nerr != nil {
					t.Errorf("%s × %s: MeasureRTT with NoTSO: %v", tr, rec, nerr)
				}
				if tr == TransportTCP && (nerr == nil || !strings.Contains(nerr.Error(), spec.name()) || !strings.Contains(nerr.Error(), "NoTSO")) {
					t.Errorf("%s × %s: MeasureRTT with NoTSO: error %v, want one naming the stack and NoTSO", tr, rec, nerr)
				}
				continue
			}
			if err == nil {
				t.Errorf("%s × %s should be rejected", tr, rec)
				continue
			}
			msg := err.Error()
			if !strings.Contains(msg, spec.name()) || !strings.Contains(msg, string(rec)) {
				t.Errorf("%s × %s error %q does not name the stack and the record layer", tr, rec, msg)
			}
			for _, b := range []struct {
				harness string
				err     error
			}{{"MeasureRedis", rerr}, {"NewDialer", derr}} {
				if b.err == nil || b.err.Error() != msg {
					t.Errorf("%s × %s: %s error %v, want BuildFabric's %q", tr, rec, b.harness, b.err, msg)
				}
			}
		}
	}
	// A buildable stack still rejects a handshake policy it cannot run.
	for _, c := range []struct {
		stack  string
		policy HandshakePolicy
	}{{"TCP", HS1RTT}, {"SMT-sw", HSResume}, {"kTLS-sw", HS0RTT}} {
		_, err := NewDialer(NewWorld(1), mustStack(c.stack), DialConfig{Policy: c.policy})
		if err == nil || !strings.Contains(err.Error(), c.stack) || !strings.Contains(err.Error(), c.policy.String()) {
			t.Errorf("%s dialing %v: want an error naming both, got %v", c.stack, c.policy, err)
		}
	}
	// The two mismatch directions read as design-space arguments, not
	// just "no": SMT-over-TCP explains transport integration, stream
	// records over homa explain the missing bytestream.
	if _, err := BuildFabric(StackSpec{Transport: TransportTCP, Record: RecordSMTHW}); err == nil || !strings.Contains(err.Error(), "transport-integrated") {
		t.Errorf("tcp × smt-hw error should explain transport integration, got %v", err)
	}
	if _, err := BuildFabric(StackSpec{Transport: TransportHoma, Record: RecordKTLSSW}); err == nil || !strings.Contains(err.Error(), "bytestream") {
		t.Errorf("homa × ktls-sw error should explain the bytestream mismatch, got %v", err)
	}
	if _, err := BuildFabric(StackSpec{Transport: "rdma", Record: RecordPlain}); err == nil || !strings.Contains(err.Error(), "unknown transport") {
		t.Errorf("unknown transport should be named, got %v", err)
	}
	if _, err := BuildFabric(StackSpec{Transport: TransportTCP, Record: "psp"}); err == nil || !strings.Contains(err.Error(), "unknown record layer") {
		t.Errorf("unknown record layer should be named, got %v", err)
	}
}

// echoSmokeSizes is the deterministic 3-size echo grid of the
// cross-product smoke test: one sub-MTU, one multi-packet, one
// multi-record message.
var echoSmokeSizes = []int{64, 4096, 40000}

// runEchoSmoke wires spec on w and closed-loops every client through
// the 3-size echo, returning completions per size. It runs inside
// ForEach worker goroutines, so failures panic (which ForEach
// propagates into the test) rather than calling Fatalf off-goroutine.
func runEchoSmoke(spec StackSpec, w *World) map[int]uint64 {
	sys := must(BuildFabric(spec))
	clients := w.ClientHosts()
	var loops []*rpc.ClosedLoop
	issue, err := sys.Setup(w, clients, w.Server,
		FabricConfig{StreamsPerClient: 2, MTU: mtuOrDefault(0)},
		func(client int, reqID uint64) { loops[client].Done(reqID) })
	if err != nil {
		panic(spec.Name + ": setup: " + err.Error())
	}
	completed := map[int]uint64{}
	for _, size := range echoSmokeSizes {
		loops = loops[:0]
		var total uint64
		for ci := range clients {
			loop := rpc.NewClosedLoop(w.Eng, func(stream int, reqID uint64) {
				issue(ci, stream, reqID, size, size)
			})
			loops = append(loops, loop)
		}
		start := w.Eng.Now()
		stop := start + 2*sim.Millisecond
		for _, loop := range loops {
			loop.Start(1, start, stop)
		}
		w.Eng.RunUntil(stop)
		for _, loop := range loops {
			loop.Stop()
			total += loop.Completed
		}
		// Drain in-flight responses before the next size.
		w.Eng.RunUntil(w.Eng.Now() + 200*sim.Microsecond)
		completed[size] = total
	}
	return completed
}

// TestStackCrossProductSmoke builds every registered stack on both
// World shapes — the two-host back-to-back testbed and a switched
// 2-client fabric — and runs the deterministic 3-size echo on each.
// This is the contract the stack catalogue exists for: every listed
// stack runs everywhere, including TCPLS and user-space TLS, which the
// pre-registry harness could only wire on two hosts.
func TestStackCrossProductSmoke(t *testing.T) {
	worlds := []struct {
		name string
		topo netsim.Topology
	}{
		{"two-host", netsim.Topology{Hosts: 2}},
		{"switched-fabric", netsim.Topology{Hosts: 3, Switch: &netsim.SwitchConfig{}}},
	}
	stacks := Stacks()
	type cell struct {
		world int
		stack int
	}
	cells := make([]cell, 0, len(worlds)*len(stacks))
	for wi := range worlds {
		for si := range stacks {
			cells = append(cells, cell{wi, si})
		}
	}
	var mu sync.Mutex
	results := map[string]map[int]uint64{}
	ForEach(len(cells), 0, func(i int) {
		c := cells[i]
		w := NewFabricWorld(900+int64(i), worlds[c.world].topo)
		got := runEchoSmoke(stacks[c.stack], w)
		mu.Lock()
		results[worlds[c.world].name+"/"+stacks[c.stack].Name] = got
		mu.Unlock()
	})
	for key, bySize := range results {
		for _, size := range echoSmokeSizes {
			if bySize[size] == 0 {
				t.Errorf("%s: no %dB echoes completed", key, size)
			}
		}
	}
}

// TestStackLineupSelection pins the ParseStacks/RunOptions.Lineup path
// smtexp -stacks drives: the lineup experiments decompose over the
// selection for that run only, while Lookup keeps the default lineup
// (and its point keys).
func TestStackLineupSelection(t *testing.T) {
	specs, err := ParseStacks("tcpls, TLS ,SMT-hw")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 || specs[0].Name != "TCPLS" || specs[1].Name != "TLS" || specs[2].Name != "SMT-hw" {
		t.Fatalf("ParseStacks resolved %v", specs)
	}
	if _, err := ParseStacks("TCP,warpstream"); err == nil || !strings.Contains(err.Error(), "warpstream") {
		t.Fatalf("unknown stack should be named in the error, got %v", err)
	}
	// A repeated stack (in any case) would give two points one key.
	if _, err := ParseStacks("TCP,tcp"); err == nil || !strings.Contains(err.Error(), `"TCP"`) {
		t.Fatalf("repeated stack should be named in the error, got %v", err)
	}

	fig6, _ := Lookup("fig6")
	pts := RunOptions{Lineup: specs}.bind(fig6).Points()
	if want := len(Fig6Sizes) * 3; len(pts) != want {
		t.Fatalf("fig6 over 3-stack lineup has %d points, want %d", len(pts), want)
	}
	if !strings.Contains(pts[0].Key, "sys=TCPLS") {
		t.Errorf("first point %q should sweep TCPLS first", pts[0].Key)
	}
	// An unbuildable spec fails the run before anything runs.
	bad := RunOptions{Lineup: []StackSpec{{Transport: TransportHoma, Record: RecordTCPLS}}}
	if _, err := RunNamed([]string{"fig6"}, bad); err == nil {
		t.Error("RunNamed accepted an unbuildable lineup spec")
	}

	pts = fig6.Points()
	if want := len(Fig6Sizes) * len(DefaultLineup()); len(pts) != want {
		t.Fatalf("Lookup lost the default lineup: %d points, want %d", len(pts), want)
	}
	if !strings.Contains(pts[0].Key, "sys=TCP/") {
		t.Errorf("default first point %q changed", pts[0].Key)
	}
}

// TestStackFabricSeparation is the acceptance point for the grown
// matrix: TCPLS and user-space TLS — two stacks the fused six-system
// harness could never run on a switched fabric — complete the 3-client
// 64KB incast and land in the TCP-family collapse regime: congested
// (shared-buffer drops), yet delivering less than half the goodput the
// message-transport SMT-hw sustains at the same point. (Their p99 over
// *completions* is not asserted: under collapse the few RPCs that
// finish are the survivors, so the completed-only tail is biased low.)
func TestStackFabricSeparation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep; run without -short")
	}
	t.Parallel()
	names := []string{"TCPLS", "TLS", "SMT-hw"}
	rows := map[string]IncastRow{}
	var mu sync.Mutex
	ForEach(len(names), 0, func(i int) {
		r := must(MeasureIncast(must(BuildFabric(mustStack(names[i]))), 3, 65536, 9003))
		mu.Lock()
		rows[r.System] = r
		mu.Unlock()
	})
	for name, r := range rows {
		if r.N == 0 {
			t.Fatalf("%s: no incast completions on the switched fabric", name)
		}
		if r.SwitchDrops == 0 {
			t.Errorf("%s: no switch drops; the point is not congested", name)
		}
		t.Logf("%-8s goodput=%.2fGbps p99=%.0fµs drops=%d n=%d",
			name, r.GoodputGbps, r.P99LatUs, r.SwitchDrops, r.N)
	}
	for _, stream := range []string{"TCPLS", "TLS"} {
		if rows["SMT-hw"].GoodputGbps < 2*rows[stream].GoodputGbps {
			t.Errorf("goodput separation missing: SMT-hw=%.2f Gbps vs %s=%.2f Gbps",
				rows["SMT-hw"].GoodputGbps, stream, rows[stream].GoodputGbps)
		}
	}
}
