// Package nvmeof models the §5.4 experiment: an NVMe-over-fabrics remote
// block service with an in-kernel client. Reads are served from a
// simulated SSD (parallel channels, tens-of-µs access latency); the
// transport carries 4 KB blocks. Being in-kernel, the client and target
// skip the user/kernel copy and per-IO syscall; the current Homa/SMT port
// pays one extra data copy (§5.4 "still expensive, including one extra
// data copy compared to TCP").
package nvmeof

import "smt/internal/sim"

// BlockSize is the default NVMe block size used in the evaluation.
const BlockSize = 4096

// SSD models the flash device: NumChannels independent channels, each a
// serial resource with ReadLatency per 4 KB access.
type SSD struct {
	channels []*sim.Resource
	// ReadLatency is the media access time per block.
	ReadLatency sim.Time
	Reads       uint64
}

// NewSSD creates a device with the given channel parallelism.
func NewSSD(eng *sim.Engine, channels int, readLatency sim.Time) *SSD {
	if channels < 1 {
		channels = 1
	}
	s := &SSD{ReadLatency: readLatency}
	for i := 0; i < channels; i++ {
		s.channels = append(s.channels, sim.NewResource(eng))
	}
	return s
}

// Read schedules a media read of lba; done runs when the channel
// completes it.
func (s *SSD) Read(lba uint64, done func()) {
	s.Reads++
	s.channels[int(lba)%len(s.channels)].Acquire(s.ReadLatency, done)
}

// In-kernel fixed costs per IO (§5.4), well below user-space RPC
// handling: no syscalls and no user/kernel copy.
const (
	// TargetFixed is the NVMe-oF target processing per IO (command
	// parsing, block-layer submission).
	TargetFixed = 1200 * sim.Nanosecond
	// ClientFixed is the in-kernel initiator processing per IO.
	ClientFixed = 900 * sim.Nanosecond
)

// DefaultReadLatency is the SSD media time for a 4 KB random read.
const DefaultReadLatency = 65 * sim.Microsecond

// DefaultChannels is the device parallelism.
const DefaultChannels = 16
