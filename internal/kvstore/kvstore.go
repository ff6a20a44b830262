// Package kvstore is the Redis analog of §5.3: a single-threaded
// key-value server with a RESP-flavored message protocol, served over any
// of the simulated transports. Its defining property for Figure 8 is that
// request parsing, database manipulation, *and* the transport send path
// (including software encryption when the NIC does not offload) all run
// on the one server thread — which is why freeing crypto cycles shows up
// directly as throughput.
package kvstore

import (
	"encoding/binary"
	"fmt"

	"smt/internal/cost"
	"smt/internal/sim"
)

// Command opcodes of the wire protocol (RESP-like, binary).
const (
	CmdGet = iota + 1
	CmdSet
	CmdScan
)

// Request is a parsed command.
type Request struct {
	Cmd     uint8
	Key     uint64
	ScanLen uint16
	Value   []byte // for SET
}

// EncodeRequest appends a serialized request to dst and returns the
// extended slice: cmd(1) key(8) scanlen(2) vlen(4) value.
func EncodeRequest(dst []byte, r Request) []byte {
	dst = append(dst, r.Cmd)
	dst = binary.BigEndian.AppendUint64(dst, r.Key)
	dst = binary.BigEndian.AppendUint16(dst, r.ScanLen)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Value)))
	return append(dst, r.Value...)
}

// DecodeRequest parses a request.
func DecodeRequest(b []byte) (Request, error) {
	if len(b) < 15 {
		return Request{}, fmt.Errorf("kvstore: short request")
	}
	r := Request{
		Cmd:     b[0],
		Key:     binary.BigEndian.Uint64(b[1:]),
		ScanLen: binary.BigEndian.Uint16(b[9:]),
	}
	n := binary.BigEndian.Uint32(b[11:])
	if int(n) > len(b)-15 {
		return Request{}, fmt.Errorf("kvstore: bad value length")
	}
	r.Value = b[15 : 15+n]
	return r, nil
}

// Store is the in-memory database plus its CPU cost model.
type Store struct {
	cm   *cost.Model
	vals map[uint64][]byte

	// Stats
	Gets, Sets, Scans, Misses uint64
}

// New creates a store preloaded with `keys` records of valueSize bytes.
// One slab backs every preloaded value, each a sub-slice clipped to its
// length.
func New(cm *cost.Model, keys uint64, valueSize int) *Store {
	s := &Store{cm: cm, vals: make(map[uint64][]byte, keys)}
	slab := make([]byte, int(keys)*valueSize)
	for k := uint64(0); k < keys; k++ {
		off := int(k) * valueSize
		v := slab[off : off+valueSize : off+valueSize]
		binary.BigEndian.PutUint64(v, k) // recognizable content
		s.vals[k] = v
	}
	return s
}

// Execute runs a request against the database, appending the response
// payload to dst, and returns the extended slice and the application
// CPU cost (parse + hash op + value copy), which the caller charges on
// the server's single thread. No stored value aliases req or the
// response: SET copies the request's value in.
func (s *Store) Execute(dst []byte, req Request) (resp []byte, cpu sim.Time) {
	// Parse + dispatch cost.
	cpu = s.cm.AppLogic
	switch req.Cmd {
	case CmdGet:
		s.Gets++
		v, ok := s.vals[req.Key]
		if !ok {
			s.Misses++
			return append(dst, 0), cpu
		}
		cpu += s.cm.Copy(len(v))
		return append(append(dst, 1), v...), cpu
	case CmdSet:
		s.Sets++
		if v, ok := s.vals[req.Key]; ok && len(v) == len(req.Value) {
			copy(v, req.Value)
		} else {
			s.vals[req.Key] = append([]byte(nil), req.Value...)
		}
		cpu += s.cm.Copy(len(req.Value))
		return append(dst, 1), cpu
	case CmdScan:
		s.Scans++
		base := len(dst)
		dst = append(dst, 1)
		for i := uint16(0); i < req.ScanLen; i++ {
			v, ok := s.vals[(req.Key+uint64(i))%uint64(len(s.vals))]
			if !ok {
				continue
			}
			dst = append(dst, v...)
		}
		cpu += s.cm.Copy(len(dst)-base) + sim.Time(req.ScanLen)*200*sim.Nanosecond
		return dst, cpu
	default:
		return append(dst, 0), cpu
	}
}
