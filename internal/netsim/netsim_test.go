package netsim

import (
	"testing"

	"smt/internal/cost"
	"smt/internal/sim"
	"smt/internal/wire"
)

func pkt(dst uint32) *wire.Packet {
	return &wire.Packet{
		IP:      wire.IPv4Header{TTL: 64, Protocol: wire.ProtoHoma, Src: 1, Dst: dst},
		Payload: make([]byte, 100),
	}
}

func TestDeliverLatency(t *testing.T) {
	eng := sim.NewEngine(1)
	cm := cost.Default()
	n := New(eng, cm)
	var at sim.Time
	n.Attach(2, func(p *wire.Packet) { at = eng.Now() })
	eng.At(1000, func() { n.Deliver(pkt(2)) })
	eng.Run()
	want := sim.Time(1000) + cm.PropDelay + cm.NICFixedDelay
	if at != want {
		t.Fatalf("arrival at %v, want %v", at, want)
	}
	if n.Delivered.N != 1 {
		t.Fatalf("delivered = %d", n.Delivered.N)
	}
}

func TestUnknownDestinationDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, cost.Default())
	eng.At(0, func() { n.Deliver(pkt(99)) })
	eng.Run()
	if n.Dropped.N != 1 || n.Delivered.N != 0 {
		t.Fatalf("dropped=%d delivered=%d", n.Dropped.N, n.Delivered.N)
	}
}

func TestLossInjection(t *testing.T) {
	eng := sim.NewEngine(7)
	n := New(eng, cost.Default())
	var got int
	n.Attach(2, func(p *wire.Packet) { got++ })
	n.LossProb = 0.5
	eng.At(0, func() {
		for i := 0; i < 1000; i++ {
			n.Deliver(pkt(2))
		}
	})
	eng.Run()
	if got < 400 || got > 600 {
		t.Fatalf("got %d of 1000 at 50%% loss", got)
	}
	if n.Dropped.N+n.Delivered.N != 1000 {
		t.Fatal("accounting mismatch")
	}
}

func TestPartition(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, cost.Default())
	got := 0
	n.Attach(2, func(p *wire.Packet) { got++ })
	n.Partitioned = true
	eng.At(0, func() { n.Deliver(pkt(2)) })
	eng.Run()
	if got != 0 {
		t.Fatal("partitioned network delivered a packet")
	}
}

func TestDuplication(t *testing.T) {
	eng := sim.NewEngine(3)
	n := New(eng, cost.Default())
	got, bytes := 0, uint64(0)
	n.Attach(2, func(p *wire.Packet) { got++; bytes += uint64(p.WireLen()) })
	n.DupProb = 1.0
	eng.At(0, func() { n.Deliver(pkt(2)) })
	eng.Run()
	if got != 2 {
		t.Fatalf("got %d deliveries, want 2", got)
	}
	// Byte accounting balances: the extra copy is counted both in
	// Delivered and in Duplicated.
	if n.Delivered.N != 2 || n.Duplicated.N != 1 {
		t.Fatalf("Delivered.N = %d, Duplicated.N = %d; want 2, 1", n.Delivered.N, n.Duplicated.N)
	}
	if n.Delivered.Bytes != bytes {
		t.Fatalf("Delivered.Bytes = %d, receiver saw %d", n.Delivered.Bytes, bytes)
	}
	if n.Delivered.Bytes-n.Duplicated.Bytes != bytes/2 {
		t.Fatalf("unique bytes = %d, want %d", n.Delivered.Bytes-n.Duplicated.Bytes, bytes/2)
	}
}

func TestReorderDelays(t *testing.T) {
	eng := sim.NewEngine(3)
	cm := cost.Default()
	n := New(eng, cm)
	var times []sim.Time
	n.Attach(2, func(p *wire.Packet) { times = append(times, eng.Now()) })
	n.ReorderProb = 1.0
	n.ReorderDelay = 50 * sim.Microsecond
	eng.At(0, func() { n.Deliver(pkt(2)) })
	eng.Run()
	want := cm.PropDelay + cm.NICFixedDelay + 50*sim.Microsecond
	if len(times) != 1 || times[0] != want {
		t.Fatalf("times = %v, want [%v]", times, want)
	}
}

// fabric builds an N-host switched network with a sink counter per host.
func fabric(t *testing.T, hosts int, sw SwitchConfig, seed int64) (*sim.Engine, *Network, []int) {
	t.Helper()
	eng := sim.NewEngine(seed)
	n := Topology{Hosts: hosts, Switch: &sw}.Build(eng, cost.Default())
	got := make([]int, hosts)
	for i := 0; i < hosts; i++ {
		i := i
		n.Attach(wire.HostAddr(i), func(p *wire.Packet) { got[i]++ })
	}
	return eng, n, got
}

func TestTopologyIdealMatchesNew(t *testing.T) {
	eng := sim.NewEngine(1)
	cm := cost.Default()
	n := Topology{Hosts: 2}.Build(eng, cm)
	if n.Switched() {
		t.Fatal("switchless topology reports Switched")
	}
	var at sim.Time
	n.Attach(2, func(p *wire.Packet) { at = eng.Now() })
	eng.At(1000, func() { n.Deliver(pkt(2)) })
	eng.Run()
	if want := sim.Time(1000) + cm.PropDelay + cm.NICFixedDelay; at != want {
		t.Fatalf("ideal topology arrival at %v, want %v", at, want)
	}
}

func TestTopologyTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Topology{Hosts:1}.Build should panic")
		}
	}()
	Topology{Hosts: 1}.Build(sim.NewEngine(1), cost.Default())
}

func TestSwitchAddsLatencyAndSerialization(t *testing.T) {
	eng := sim.NewEngine(1)
	cm := cost.Default()
	n := Topology{Hosts: 2, Switch: &SwitchConfig{}}.Build(eng, cm)
	if !n.Switched() {
		t.Fatal("switched topology not Switched")
	}
	var at sim.Time
	n.Attach(2, func(p *wire.Packet) { at = eng.Now() })
	p := pkt(2)
	eng.At(0, func() { n.Deliver(p) })
	eng.Run()
	ser := sim.Time(float64(p.WireLen()) * 8 / cm.LinkGbps)
	want := DefaultSwitchLatency + ser + cm.PropDelay + cm.NICFixedDelay
	if at != want {
		t.Fatalf("switched arrival at %v, want %v", at, want)
	}
}

// TestSwitchEgressQueueing: two packets to the same destination
// serialize one after the other at port rate; packets to a different
// destination are unaffected (output queueing).
func TestSwitchEgressQueueing(t *testing.T) {
	eng := sim.NewEngine(1)
	cm := cost.Default()
	n := Topology{Hosts: 3, Switch: &SwitchConfig{PortGbps: 10}}.Build(eng, cm)
	var hot []sim.Time
	var cold sim.Time
	n.Attach(2, func(p *wire.Packet) { hot = append(hot, eng.Now()) })
	n.Attach(3, func(p *wire.Packet) { cold = eng.Now() })
	eng.At(0, func() {
		n.Deliver(pkt(2))
		n.Deliver(pkt(2))
		n.Deliver(pkt(3))
	})
	eng.Run()
	ser := sim.Time(float64(pkt(2).WireLen()) * 8 / 10)
	base := DefaultSwitchLatency + ser + cm.PropDelay + cm.NICFixedDelay
	if len(hot) != 2 || hot[0] != base || hot[1] != base+ser {
		t.Fatalf("hot-port arrivals %v, want [%v %v]", hot, base, base+ser)
	}
	if cold != base {
		t.Fatalf("cold-port arrival %v, want %v (must not queue behind the hot port)", cold, base)
	}
}

// TestSwitchSharedBufferDrops: a burst exceeding the shared buffer tail-
// drops; the buffer fully drains afterwards.
func TestSwitchSharedBufferDrops(t *testing.T) {
	wireLen := pkt(2).WireLen()
	eng, n, got := fabric(t, 2, SwitchConfig{BufferBytes: 4 * wireLen, PortGbps: 1}, 1)
	eng.At(0, func() {
		for i := 0; i < 10; i++ {
			n.Deliver(pkt(2))
		}
	})
	eng.Run()
	if got[1] != 4 {
		t.Fatalf("delivered %d of 10 with a 4-packet shared buffer, want 4", got[1])
	}
	if n.SwitchDrops.N != 6 {
		t.Fatalf("SwitchDrops = %d, want 6", n.SwitchDrops.N)
	}
	if n.BufferUsed() != 0 {
		t.Fatalf("buffer not drained: %d bytes", n.BufferUsed())
	}
}

// TestSwitchBufferSharedAcrossPorts: a hog destination can starve a
// victim destination of buffer space — the shared-buffer coupling that
// makes incast hurt innocent flows.
func TestSwitchBufferSharedAcrossPorts(t *testing.T) {
	wireLen := pkt(2).WireLen()
	eng, n, got := fabric(t, 3, SwitchConfig{BufferBytes: 4 * wireLen, PortGbps: 1}, 1)
	eng.At(0, func() {
		for i := 0; i < 4; i++ {
			n.Deliver(pkt(2)) // fill the shared buffer toward host 1
		}
		n.Deliver(pkt(3)) // victim: no space left
	})
	eng.Run()
	if got[2] != 0 {
		t.Fatalf("victim packet delivered despite full shared buffer")
	}
	if got[1] != 4 {
		t.Fatalf("hog got %d of 4", got[1])
	}
}

func TestSwitchDeterministic(t *testing.T) {
	run := func() (sim.Time, uint64, uint64) {
		eng, n, _ := fabric(t, 4, SwitchConfig{BufferBytes: 2000, PortGbps: 25}, 42)
		n.LossProb = 0.1
		n.DupProb = 0.1
		eng.At(0, func() {
			for i := 0; i < 200; i++ {
				n.Deliver(pkt(wire.HostAddr(i % 3)))
			}
		})
		end := eng.Run()
		return end, n.Delivered.N, n.Dropped.N
	}
	e1, d1, x1 := run()
	e2, d2, x2 := run()
	if e1 != e2 || d1 != d2 || x1 != x2 {
		t.Fatalf("switched fabric not deterministic: (%v,%d,%d) vs (%v,%d,%d)", e1, d1, x1, e2, d2, x2)
	}
}

// TestCombinedFaultInjection drives every fault knob at once — loss,
// duplication, reordering, and payload corruption — over both wirings,
// and checks the ledger the auditor's conservation pass relies on:
// every packet that entered is either committed for delivery or dropped
// (duplicates counted on both sides), the receiver sees exactly the
// committed packets, corrupted deliveries are marked, and the pool gets
// every packet back.
func TestCombinedFaultInjection(t *testing.T) {
	cases := []struct {
		name                        string
		loss, dup, reorder, corrupt float64
		switched                    bool
	}{
		{"ideal-mild", 0.01, 0.01, 0.05, 0.02, false},
		{"ideal-storm", 0.2, 0.1, 0.3, 0.2, false},
		{"switched-mild", 0.01, 0.01, 0.05, 0.02, true},
		{"switched-storm", 0.2, 0.1, 0.3, 0.2, true},
	}
	const sent = 2000
	payload := make([]byte, 200)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(11)
			var n *Network
			if tc.switched {
				n = Topology{Hosts: 2, Switch: &SwitchConfig{}}.Build(eng, cost.Default())
			} else {
				n = New(eng, cost.Default())
			}
			var got, tampered int
			var gotBytes uint64
			n.Attach(2, func(p *wire.Packet) {
				got++
				gotBytes += uint64(p.WireLen())
				if p.Tampered {
					tampered++
				}
				p.Release()
			})
			n.LossProb, n.DupProb = tc.loss, tc.dup
			n.ReorderProb, n.CorruptProb = tc.reorder, tc.corrupt
			n.ReorderDelay = 20 * sim.Microsecond
			var sentBytes uint64
			eng.At(0, func() {
				for i := 0; i < sent; i++ {
					p := n.AcquirePacket()
					p.IP = wire.IPv4Header{TTL: 64, Protocol: wire.ProtoHoma, Src: 1, Dst: 2}
					p.SetPayload(payload)
					sentBytes += uint64(p.WireLen())
					n.Deliver(p)
				}
			})
			eng.Run()

			if n.Delivered.N+n.Dropped.N != sent+n.Duplicated.N {
				t.Errorf("packet ledger: delivered %d + dropped %d != sent %d + duplicated %d",
					n.Delivered.N, n.Dropped.N, sent, n.Duplicated.N)
			}
			if n.Delivered.Bytes+n.Dropped.Bytes != sentBytes+n.Duplicated.Bytes {
				t.Errorf("byte ledger: delivered %d + dropped %d != sent %d + duplicated %d",
					n.Delivered.Bytes, n.Dropped.Bytes, sentBytes, n.Duplicated.Bytes)
			}
			if uint64(got) != n.Delivered.N || gotBytes != n.Delivered.Bytes {
				t.Errorf("receiver saw %d pkts / %d B, network committed %d / %d",
					got, gotBytes, n.Delivered.N, n.Delivered.Bytes)
			}
			if n.Dropped.N == 0 || n.Duplicated.N == 0 || n.Corrupted.N == 0 {
				t.Errorf("fault knobs inert: dropped=%d duplicated=%d corrupted=%d",
					n.Dropped.N, n.Duplicated.N, n.Corrupted.N)
			}
			if tampered == 0 {
				t.Error("no delivered packet carried the Tampered mark")
			}
			if out := n.OutstandingPackets(); out != 0 {
				t.Errorf("%d pooled packets leaked", out)
			}
		})
	}
}

// TestSwitchedBurstAllocs gates a warmed switched port at zero
// allocations per 64-packet burst: the egress FIFO reuses its backing
// array (a re-sliced queue regrows on every burst), and pooled packets
// and hop events carry each packet through.
func TestSwitchedBurstAllocs(t *testing.T) {
	eng := sim.NewEngine(1)
	n := Topology{Hosts: 2, Switch: &SwitchConfig{}}.Build(eng, cost.Default())
	got := 0
	n.Attach(2, func(p *wire.Packet) { got++; p.Release() })
	body := make([]byte, 1000)
	burst := func() {
		got = 0
		for i := 0; i < 64; i++ {
			p := n.AcquirePacket()
			p.IP = wire.IPv4Header{TTL: 64, Protocol: wire.ProtoHoma, Src: 1, Dst: 2}
			p.SetPayload(body)
			n.Deliver(p)
		}
		eng.Run()
		if got != 64 {
			t.Fatalf("%d of 64 packets delivered", got)
		}
	}
	for i := 0; i < 4; i++ {
		burst()
	}
	if allocs := testing.AllocsPerRun(50, burst); allocs != 0 {
		t.Fatalf("%.1f allocs per warmed 64-packet switched burst, want 0", allocs)
	}
	if n.OutstandingPackets() != 0 || n.BufferUsed() != 0 {
		t.Fatalf("after the bursts: %d packets outstanding, %d buffer bytes used", n.OutstandingPackets(), n.BufferUsed())
	}
}
