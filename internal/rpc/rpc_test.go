package rpc

import (
	"testing"
	"testing/quick"

	"smt/internal/sim"
)

func TestEncodeDecode(t *testing.T) {
	b := Encode(42, 1000, 64)
	if len(b) != 64 {
		t.Fatalf("len = %d", len(b))
	}
	id, rs, err := Decode(b)
	if err != nil || id != 42 || rs != 1000 {
		t.Fatalf("decode = %d %d %v", id, rs, err)
	}
}

func TestEncodeClampsToHeader(t *testing.T) {
	b := Encode(1, 2, 3)
	if len(b) != MinSize {
		t.Fatalf("len = %d, want %d", len(b), MinSize)
	}
}

func TestDecodeShort(t *testing.T) {
	if _, _, err := Decode(make([]byte, 5)); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(id uint64, rs uint32, size uint16) bool {
		b := Encode(id, rs, int(size))
		gid, grs, err := Decode(b)
		return err == nil && gid == id && grs == rs && len(b) >= MinSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAppendEncodeReusesScratch reuses one scratch across growing and
// shrinking sizes: the body pattern is written only when the scratch
// grows, so every reuse must still read back the header just written
// and a valid body, and must not reallocate.
func TestAppendEncodeReusesScratch(t *testing.T) {
	var b []byte
	for i, size := range []int{64, 8192, 100, 12, 5, 4096, 8192, 65536, 64, 65536, 1} {
		prev := b
		b = AppendEncode(b, uint64(i)<<40|7, uint32(size)*3, size)
		if want := max(size, MinSize); len(b) != want {
			t.Fatalf("size %d: len %d, want %d", size, len(b), want)
		}
		if cap(prev) >= len(b) && &b[0] != &prev[:1][0] {
			t.Fatalf("size %d: scratch of capacity %d reallocated", size, cap(prev))
		}
		id, rs, err := Decode(b)
		if err != nil || id != uint64(i)<<40|7 || rs != uint32(size)*3 {
			t.Fatalf("size %d: header decodes to %d %d %v", size, id, rs, err)
		}
		if !BodyValid(b) {
			t.Fatalf("size %d: body does not match the filler pattern", size)
		}
	}
}

// Fake service with fixed latency: closed loop must keep exactly C
// outstanding and measure the configured latency.
func TestClosedLoop(t *testing.T) {
	eng := sim.NewEngine(1)
	const lat = 10 * sim.Microsecond
	var cl *ClosedLoop
	cl = NewClosedLoop(eng, func(stream int, reqID uint64) {
		if cl.Outstanding() > 4 {
			t.Errorf("outstanding = %d > concurrency", cl.Outstanding())
		}
		eng.After(lat, func() { cl.Done(reqID) })
	})
	cl.Start(4, 1*sim.Millisecond, 11*sim.Millisecond)
	eng.RunUntil(11 * sim.Millisecond)
	// Ideal rate: 4 streams / 10µs = 400k/s over 10ms window → 4000.
	if cl.Completed < 3900 || cl.Completed > 4100 {
		t.Fatalf("completed = %d", cl.Completed)
	}
	if p50 := cl.Latency.P50(); p50 != int64(lat) {
		t.Fatalf("p50 = %d, want %d", p50, lat)
	}
	tp := cl.Throughput()
	if tp < 390_000 || tp > 410_000 {
		t.Fatalf("throughput = %f", tp)
	}
}

func TestClosedLoopStops(t *testing.T) {
	eng := sim.NewEngine(1)
	issued := 0
	var cl *ClosedLoop
	cl = NewClosedLoop(eng, func(stream int, reqID uint64) {
		issued++
		eng.After(sim.Microsecond, func() { cl.Done(reqID) })
	})
	cl.Start(1, 0, 10*sim.Microsecond)
	eng.RunUntil(50 * sim.Microsecond)
	if issued == 0 || issued > 11 {
		t.Fatalf("issued = %d; should stop at stopAt", issued)
	}
}

func TestClosedLoopSpacing(t *testing.T) {
	eng := sim.NewEngine(1)
	var cl *ClosedLoop
	cl = NewClosedLoop(eng, func(stream int, reqID uint64) {
		eng.After(sim.Microsecond, func() { cl.Done(reqID) })
	})
	cl.StreamSpacing = 9 * sim.Microsecond // 10µs per request cycle
	cl.Start(1, 0, 1*sim.Millisecond)
	eng.RunUntil(1 * sim.Millisecond)
	if cl.CompletedAll < 95 || cl.CompletedAll > 105 {
		t.Fatalf("rate-limited completions = %d, want ≈100", cl.CompletedAll)
	}
}

// TestSpacedStreamAllocs pins that a spaced stream's next request goes
// out through its prebuilt callback: a warmed Done-to-issue cycle
// allocates nothing.
func TestSpacedStreamAllocs(t *testing.T) {
	eng := sim.NewEngine(1)
	var last uint64
	cl := NewClosedLoop(eng, func(stream int, reqID uint64) { last = reqID })
	cl.StreamSpacing = sim.Microsecond
	cl.Start(1, 0, sim.Second)
	cycle := func() {
		cl.Done(last)
		eng.RunUntil(eng.Now() + 2*sim.Microsecond)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("spaced Done-to-issue cycle: %v allocs, want 0", n)
	}
	if cl.CompletedAll < 100 {
		t.Fatalf("completed %d cycles, want at least 100", cl.CompletedAll)
	}
}

func TestDuplicateDoneIgnored(t *testing.T) {
	eng := sim.NewEngine(1)
	var cl *ClosedLoop
	cl = NewClosedLoop(eng, func(stream int, reqID uint64) {})
	cl.Start(1, 0, sim.Second)
	eng.At(1, func() {
		cl.Done(0)
		cl.Done(0) // duplicate: must not fire another stream
	})
	eng.RunUntil(2)
	if cl.Outstanding() != 1 {
		t.Fatalf("outstanding = %d after dup Done", cl.Outstanding())
	}
}
