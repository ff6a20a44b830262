package experiments

import "testing"

// eventsPerRPC runs fig7's throughput point for one stack and size
// through MeasureThroughput's own set-up (startClosedLoop: default MTU,
// no spacing), and returns the engine scheduling calls made after the
// warm mark and the RPCs completed in the window.
func eventsPerRPC(t *testing.T, stack string, size, streams int, seed int64) (calls, rpcs uint64) {
	t.Helper()
	sys, err := BuildSystem(mustStack(stack))
	if err != nil {
		t.Fatalf("build %s: %v", stack, err)
	}
	w, cl, warm, stop, err := startClosedLoop(sys, size, streams, 0, 0, seed, nil)
	if err != nil {
		t.Fatalf("setup %s: %v", stack, err)
	}
	var atWarm uint64
	w.Eng.At(warm, func() { atWarm = w.Eng.Scheduled() })
	w.Eng.RunUntil(stop)
	cl.Stop()
	return w.Eng.Scheduled() - atWarm, cl.Completed
}

// TestEventsPerRPC pins the engine's work per RPC: the exact scheduling
// calls (timer re-arms included) and completed RPCs of fig7's 100-stream
// point (seed 1100) for every default stack at 64 B and 8 KiB. A change
// that leaves these pairs alone did not change what the engine runs; one
// that removes events moves them, and the new pairs are its measured
// saving. Calls per RPC at these pins: 30.8-31.0 at 64 B (33.0 on
// SMT-hw), 86.3-86.5 at 8 KiB on the TCP family, 71.0 on Homa and
// SMT-sw and 73.0 on SMT-hw.
func TestEventsPerRPC(t *testing.T) {
	pins := []struct {
		stack       string
		size        int
		calls, rpcs uint64
	}{
		{"TCP", 64, 1153245, 37388},
		{"TCP", 8192, 1635492, 18918},
		{"kTLS-sw", 64, 982992, 31737},
		{"kTLS-sw", 8192, 1609798, 18646},
		{"kTLS-hw", 64, 1006019, 32523},
		{"kTLS-hw", 8192, 1636374, 18942},
		{"Homa", 64, 1409115, 45457},
		{"Homa", 8192, 1143155, 16102},
		{"SMT-sw", 64, 1286597, 41508},
		{"SMT-sw", 8192, 1146739, 16154},
		{"SMT-hw", 64, 1415527, 42890},
		{"SMT-hw", 8192, 1181111, 16176},
	}
	if len(pins) != 2*len(DefaultLineup()) {
		t.Fatalf("%d pins for a %d-stack lineup", len(pins), len(DefaultLineup()))
	}
	for _, p := range pins {
		calls, rpcs := eventsPerRPC(t, p.stack, p.size, 100, 1100)
		t.Logf("%s %d B: %d calls for %d RPCs, %.1f per RPC", p.stack, p.size, calls, rpcs, float64(calls)/float64(rpcs))
		if calls != p.calls || rpcs != p.rpcs {
			t.Errorf("%s %d B: %d calls for %d RPCs, want %d for %d", p.stack, p.size, calls, rpcs, p.calls, p.rpcs)
		}
	}
}
