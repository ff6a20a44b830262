package nvmeof

import (
	"testing"

	"smt/internal/cost"
	"smt/internal/sim"
)

func TestSSDReadLatency(t *testing.T) {
	eng := sim.NewEngine(1)
	ssd := NewSSD(eng, 4, 50*sim.Microsecond)
	var at sim.Time
	eng.At(0, func() {
		ssd.Read(7, func() { at = eng.Now() })
	})
	eng.Run()
	if at != 50*sim.Microsecond {
		t.Fatalf("read at %v, want 50µs", at)
	}
}

func TestSSDChannelsParallel(t *testing.T) {
	eng := sim.NewEngine(1)
	ssd := NewSSD(eng, 2, 100*sim.Microsecond)
	var done []sim.Time
	eng.At(0, func() {
		for lba := uint64(0); lba < 4; lba++ {
			ssd.Read(lba, func() { done = append(done, eng.Now()) })
		}
	})
	eng.Run()
	// 4 reads over 2 channels: two finish at 100µs, two queue to 200µs.
	if len(done) != 4 || done[0] != 100*sim.Microsecond || done[3] != 200*sim.Microsecond {
		t.Fatalf("completions: %v", done)
	}
	if ssd.Reads != 4 {
		t.Fatalf("reads = %d", ssd.Reads)
	}
}

func TestDefaultCosts(t *testing.T) {
	if TargetFixed <= 0 || ClientFixed <= 0 {
		t.Fatal("costs must be positive")
	}
	// In-kernel fixed costs must undercut a user-space syscall pair.
	if ClientFixed >= 2*cost.Default().Syscall {
		t.Fatal("in-kernel client should be cheaper than two syscalls")
	}
}
