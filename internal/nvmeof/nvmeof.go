// Package nvmeof models the §5.4 experiment: an NVMe-over-fabrics remote
// block service with an in-kernel client. Reads are served from a
// simulated SSD (parallel channels, tens-of-µs access latency); the
// transport carries 4 KB blocks. Being in-kernel, the client and target
// skip the user/kernel copy and per-IO syscall; the current Homa/SMT port
// pays one extra data copy (§5.4 "still expensive, including one extra
// data copy compared to TCP").
package nvmeof

import (
	"encoding/binary"
	"fmt"

	"smt/internal/cost"
	"smt/internal/sim"
)

// BlockSize is the default NVMe block size used in the evaluation.
const BlockSize = 4096

// Command opcodes.
const (
	CmdRead  = 1
	CmdWrite = 2
)

// Request is one NVMe-oF command.
type Request struct {
	Cmd uint8
	LBA uint64
}

// EncodeRequest serializes a command capsule.
func EncodeRequest(r Request) []byte {
	b := make([]byte, 16)
	b[0] = r.Cmd
	binary.BigEndian.PutUint64(b[1:], r.LBA)
	return b
}

// DecodeRequest parses a command capsule.
func DecodeRequest(b []byte) (Request, error) {
	if len(b) < 16 {
		return Request{}, fmt.Errorf("nvmeof: short capsule")
	}
	return Request{Cmd: b[0], LBA: binary.BigEndian.Uint64(b[1:])}, nil
}

// SSD models the flash device: NumChannels independent channels, each a
// serial resource with ReadLatency per 4 KB access.
type SSD struct {
	channels []*sim.Resource
	// ReadLatency is the media access time per block.
	ReadLatency sim.Time
	// Blocks holds the device contents (functional reads).
	blocks map[uint64][]byte
	Reads  uint64
}

// NewSSD creates a device with the given channel parallelism.
func NewSSD(eng *sim.Engine, channels int, readLatency sim.Time) *SSD {
	if channels < 1 {
		channels = 1
	}
	s := &SSD{ReadLatency: readLatency, blocks: make(map[uint64][]byte)}
	for i := 0; i < channels; i++ {
		s.channels = append(s.channels, sim.NewResource(eng))
	}
	return s
}

// Write stores block content (test setup; instantaneous).
func (s *SSD) Write(lba uint64, data []byte) {
	s.blocks[lba] = append([]byte(nil), data...)
}

// Read schedules a media read of lba; done receives the block when the
// channel completes it.
func (s *SSD) Read(lba uint64, done func([]byte)) {
	s.Reads++
	ch := s.channels[int(lba)%len(s.channels)]
	ch.Acquire(s.ReadLatency, func() {
		b, ok := s.blocks[lba]
		if !ok {
			b = make([]byte, BlockSize)
			binary.BigEndian.PutUint64(b, lba)
		}
		done(b)
	})
}

// Costs bundles the in-kernel path costs for target and client.
type Costs struct {
	// TargetFixed is the NVMe-oF target processing per IO (command
	// parsing, block-layer submission) — kernel context, no syscalls.
	TargetFixed sim.Time
	// ClientFixed is the in-kernel initiator processing per IO.
	ClientFixed sim.Time
}

// DefaultCosts returns the §5.4 model: in-kernel fixed costs well below
// user-space RPC handling.
func DefaultCosts(cm *cost.Model) Costs {
	return Costs{
		TargetFixed: 1200 * sim.Nanosecond,
		ClientFixed: 900 * sim.Nanosecond,
	}
}

// DefaultReadLatency is the SSD media time for a 4 KB random read.
const DefaultReadLatency = 65 * sim.Microsecond

// DefaultChannels is the device parallelism.
const DefaultChannels = 16
