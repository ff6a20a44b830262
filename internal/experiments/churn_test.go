package experiments

import (
	"testing"

	"smt/internal/cpusim"
	"smt/internal/rpc"
	"smt/internal/sim"
)

// TestChurnRegistered: the sweep is in the registry with the expected
// point grid (every lineup stack at its default policy plus forced
// 1-RTT variants for the 0-RTT stacks, per rate).
func TestChurnRegistered(t *testing.T) {
	e, ok := Lookup("churn")
	if !ok {
		t.Fatal("churn not registered")
	}
	want := len(ChurnRates) * len(churnPoints(DefaultLineup()))
	if got := len(e.Points()); got != want {
		t.Fatalf("churn has %d points, want %d", got, want)
	}
}

// TestChurnAudited dials every registered stack at its default policy
// under the wire auditor: setup must succeed, every connection's RPC
// must complete, worlds must quiesce leak-free with zero violations,
// and the handshake flights must actually cross the audited wire
// (counted, exempt from the plaintext invariant).
func TestChurnAudited(t *testing.T) {
	rate := ChurnRates[1]
	if testing.Short() {
		rate = ChurnRates[0]
	}
	for _, spec := range Stacks() {
		t.Run(spec.Name, func(t *testing.T) {
			policy := ChurnPolicyFor(spec)
			pa := &pointAudit{}
			r, err := MeasureChurn(spec, policy, rate, ChurnSeed(rate), pa)
			if err != nil {
				t.Fatal(err)
			}
			worlds := pa.worlds
			if s := pa.settle(); s.Worlds == 0 {
				t.Fatal("no audited world built")
			} else if f := s.failure(); f != "" {
				t.Errorf("%s (all violations: %v)", f, s.Recorded)
			}
			for _, w := range worlds {
				if policy != HSNone && w.Audit.Stats().HandshakePackets == 0 {
					t.Error("dialed encrypted stack put no handshake flights on the wire")
				}
			}
			t.Logf("%s/%s @%.0f/s: dials=%d est=%d done=%d setup p50=%.0fµs p99=%.0fµs hsCPU=%.1f%% hit=%.2f",
				r.System, r.Policy, r.Rate, r.Dials, r.Established, r.Completed,
				r.SetupP50Us, r.SetupP99Us, r.HsCPUFrac*100, r.TicketHitRate)
			if r.Established == 0 || r.Completed == 0 {
				t.Fatalf("nothing established/completed: %+v", r)
			}
			if r.Failed != 0 {
				t.Errorf("%d dials failed on a fault-free fabric", r.Failed)
			}
			if policy != HSNone {
				if r.HsCPUFrac <= 0 {
					t.Error("encrypted churn burned no handshake CPU")
				}
				if r.SetupP50Us <= 0 {
					t.Error("dialed setup cannot be instantaneous")
				}
			} else if r.HsCPUFrac != 0 {
				t.Errorf("plaintext churn reports handshake CPU %f", r.HsCPUFrac)
			}
			if policy == HS0RTT {
				// The compressed TTL (6 ms) forces rotations inside the
				// 25 ms window: both hits and re-mint misses must appear.
				if r.TicketHits == 0 || r.TicketMisses == 0 {
					t.Errorf("ticket rotation not exercised: hits=%d misses=%d", r.TicketHits, r.TicketMisses)
				}
				if r.TicketMisses != r.TicketRotations {
					t.Errorf("lazy re-mint: misses (%d) and rotations (%d) must agree", r.TicketMisses, r.TicketRotations)
				}
				if r.TicketHitRate <= 0 || r.TicketHitRate >= 1 {
					t.Errorf("hit rate %.2f must be strictly between 0 and 1 with rotation in the loop", r.TicketHitRate)
				}
			}
		})
	}
}

// TestChurnZeroRTTSeparation pins the headline §4.5 claim under churn:
// at the same arrival rate and seed, 0-RTT setup latency beats the
// full 1-RTT exchange at the median and in the tail.
func TestChurnZeroRTTSeparation(t *testing.T) {
	rate := ChurnRates[1]
	spec := mustStack("SMT-sw")
	r0, err := MeasureChurn(spec, HS0RTT, rate, ChurnSeed(rate))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := MeasureChurn(spec, HS1RTT, rate, ChurnSeed(rate))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("0rtt p50=%.0fµs p99=%.0fµs | 1rtt p50=%.0fµs p99=%.0fµs",
		r0.SetupP50Us, r0.SetupP99Us, r1.SetupP50Us, r1.SetupP99Us)
	if r0.SetupP50Us >= r1.SetupP50Us {
		t.Errorf("0-RTT setup p50 (%.0fµs) must beat 1-RTT (%.0fµs)", r0.SetupP50Us, r1.SetupP50Us)
	}
	if r0.SetupP99Us >= r1.SetupP99Us {
		t.Errorf("0-RTT setup p99 (%.0fµs) must beat 1-RTT (%.0fµs)", r0.SetupP99Us, r1.SetupP99Us)
	}
	// 1-RTT burns more CPU per connection (certificate round) at equal
	// arrival rate, so its handshake CPU share must be higher too.
	if r0.HsCPUFrac >= r1.HsCPUFrac {
		t.Errorf("0-RTT handshake CPU share (%.3f) must be below 1-RTT's (%.3f)", r0.HsCPUFrac, r1.HsCPUFrac)
	}
}

// TestDialedMatchesPrepaired: once established, a Dialer connection is
// the same connection the pre-paired fast path builds — steady-state
// RPC latency must agree closely (the keys differ, the costs don't).
// Both sides run the same 2-stream 1 KB closed loop on NewWorld(777):
// over a BuildFabric world, and over two HS1RTT dials.
func TestDialedMatchesPrepaired(t *testing.T) {
	for _, name := range []string{"SMT-sw", "kTLS-sw"} {
		t.Run(name, func(t *testing.T) {
			spec := mustStack(name)
			var loop *rpc.ClosedLoop
			measure := func(w *World, issue func(stream int, reqID uint64)) float64 {
				loop = rpc.NewClosedLoop(w.Eng, issue)
				start := w.Eng.Now()
				loop.Start(2, start+200*sim.Microsecond, start+3*sim.Millisecond)
				w.Eng.RunUntil(start + 4*sim.Millisecond)
				if loop.Completed == 0 {
					t.Fatal("no RPCs completed")
				}
				return loop.Latency.Mean()
			}

			w := NewWorld(777)
			issue, err := must(BuildFabric(spec)).Setup(w, []*cpusim.Host{w.Client}, w.Server,
				FabricConfig{StreamsPerClient: 2, MTU: mtuOrDefault(0)},
				func(_ int, reqID uint64) { loop.Done(reqID) })
			if err != nil {
				t.Fatal(err)
			}
			pre := measure(w, func(stream int, reqID uint64) { issue(0, stream, reqID, 1024, rpc.MinSize) })

			w = NewWorld(777)
			d, err := NewDialer(w, spec, DialConfig{Policy: HS1RTT})
			if err != nil {
				t.Fatal(err)
			}
			var conns []*DialedConn
			for i := 0; i < 2; i++ {
				d.Dial(w.Client, func(reqID uint64) { loop.Done(reqID) }, func(c *DialedConn, err error) {
					if err != nil {
						t.Errorf("dial: %v", err)
						return
					}
					conns = append(conns, c)
				})
			}
			for deadline := w.Eng.Now() + 50*sim.Millisecond; len(conns) < 2 && w.Eng.Now() < deadline; {
				w.Eng.RunUntil(w.Eng.Now() + sim.Millisecond)
			}
			if len(conns) != 2 {
				t.Fatalf("%d of 2 dials established", len(conns))
			}
			dialed := measure(w, func(stream int, reqID uint64) { conns[stream].Issue(reqID, 1024, rpc.MinSize) })

			t.Logf("pre-paired %.1fns, dialed %.1fns", pre, dialed)
			if r := dialed/pre - 1; r < -0.03 || r > 0.03 {
				t.Errorf("steady-state mean RPC latency diverges: pre-paired %.1fns, dialed %.1fns (%.1f%%)",
					pre, dialed, r*100)
			}
		})
	}
}
