// Package rpc provides the request/response plumbing the evaluation
// harness uses: a tiny RPC header carried inside transport messages, and
// a closed-loop load generator that keeps a fixed number of RPC streams
// outstanding while recording latency and throughput (the methodology of
// §5.1–§5.2).
package rpc

import (
	"encoding/binary"
	"fmt"

	"smt/internal/idmap"
	"smt/internal/sim"
	"smt/internal/stats"
)

// HeaderLen is the RPC header: request ID (8) + response size (4).
const HeaderLen = 12

// MinSize is the smallest RPC payload (the header itself).
const MinSize = HeaderLen

// pattern holds the deterministic body filler pattern[i] = byte(i), so
// payload bodies are built with aligned copies instead of a per-byte
// loop (the filler is position-dependent with period 256).
var pattern = func() (p [256]byte) {
	for i := range p {
		p[i] = byte(i)
	}
	return
}()

// Encode builds an RPC payload of exactly size bytes carrying reqID and
// the desired response size. size is clamped up to MinSize.
func Encode(reqID uint64, respSize uint32, size int) []byte {
	return AppendEncode(nil, reqID, respSize, size)
}

// AppendEncode is Encode's scratch-reusing form: the payload is written
// into b (resized, capacity reused) and returned. Callers on the hot
// issue path keep one scratch buffer per world. The body pattern only
// depends on the byte's offset, so it is written once, over the whole
// capacity, when the scratch grows; a call that reuses the scratch
// writes just the 12 header bytes. b must therefore be nil or a slice
// AppendEncode returned whose bytes nobody has written since. The
// experiments' scratch keeps that because the transports never write
// into the caller's message: tcpsim.Conn.SendMessage encodes it and
// homa.Socket.Send copies it, both reading it only, before they return.
func AppendEncode(b []byte, reqID uint64, respSize uint32, size int) []byte {
	if size < MinSize {
		size = MinSize
	}
	if cap(b) < size {
		//smt:coldpath -- scratch growth; steady state reuses the caller's buffer
		b = make([]byte, size)
		for i := HeaderLen; i < len(b); {
			i += copy(b[i:], pattern[i&255:])
		}
	}
	b = b[:size]
	binary.BigEndian.PutUint64(b, reqID)
	binary.BigEndian.PutUint32(b[8:], respSize)
	return b
}

// AppendHeader appends an RPC header carrying reqID and respSize to b:
// the payload Encode builds at MinSize, for callers that append their
// own body behind it.
func AppendHeader(b []byte, reqID uint64, respSize uint32) []byte {
	return binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(b, reqID), respSize)
}

// BodyValid reports whether an RPC payload's body matches the Encode
// filler pattern (body byte at offset i is byte(i)). The header bytes
// carry arbitrary values and are not checked. Fault-injection tests use
// this to detect a payload that was tampered with in flight yet still
// delivered to the application.
func BodyValid(b []byte) bool {
	if len(b) < HeaderLen {
		return false
	}
	for i := HeaderLen; i < len(b); i++ {
		if b[i] != byte(i) {
			return false
		}
	}
	return true
}

// Decode extracts the header from an RPC payload.
func Decode(b []byte) (reqID uint64, respSize uint32, err error) {
	if len(b) < HeaderLen {
		return 0, 0, fmt.Errorf("rpc: short payload (%d bytes)", len(b))
	}
	return binary.BigEndian.Uint64(b), binary.BigEndian.Uint32(b[8:]), nil
}

// ClosedLoop drives C concurrent RPC streams: each stream issues its next
// request the moment its previous response arrives. Latency is recorded
// only after warmup; throughput is measured over the post-warmup window.
type ClosedLoop struct {
	eng     *sim.Engine
	issue   func(stream int, reqID uint64)
	nextID  uint64
	pending idmap.Map[issued] // by outstanding reqID
	// refire holds each stream's prebuilt spaced-issue callback.
	refire []func()

	measureFrom sim.Time
	stopAt      sim.Time
	stopped     bool

	Latency stats.Histogram
	// Completed counts post-warmup completions; CompletedAll counts all.
	Completed    uint64
	CompletedAll uint64
	// StreamSpacing, when >0, delays each stream's next request by this
	// much after its response arrives, capping the per-stream issue rate
	// (the §5.2 CPU-usage experiment's fixed-rate runs). Set it before
	// Start.
	StreamSpacing sim.Time
}

// issued is what a ClosedLoop keeps per outstanding request.
type issued struct {
	stream int
	at     sim.Time
}

// NewClosedLoop creates a generator over the given issue function. Call
// Start to launch the streams and Done from the response path.
func NewClosedLoop(eng *sim.Engine, issue func(stream int, reqID uint64)) *ClosedLoop {
	return &ClosedLoop{eng: eng, issue: issue}
}

// Start launches n streams; measurement begins after warmup and ends at
// stop (absolute virtual times).
func (c *ClosedLoop) Start(n int, warmupUntil, stopAt sim.Time) {
	c.measureFrom = warmupUntil
	c.stopAt = stopAt
	if c.StreamSpacing > 0 {
		for s := len(c.refire); s < n; s++ {
			c.refire = append(c.refire, func() { c.fire(s) })
		}
	}
	for s := 0; s < n; s++ {
		c.fire(s)
	}
}

func (c *ClosedLoop) fire(stream int) {
	if c.stopped || c.eng.Now() >= c.stopAt {
		return
	}
	id := c.nextID
	c.nextID++
	c.pending.Put(id, issued{stream: stream, at: c.eng.Now()})
	c.issue(stream, id)
}

// Done reports a response for reqID; the stream's next request fires
// immediately (or after StreamSpacing).
func (c *ClosedLoop) Done(reqID uint64) {
	req, ok := c.pending.Delete(reqID)
	if !ok {
		return // duplicate or post-stop response
	}
	now := c.eng.Now()
	c.CompletedAll++
	if now >= c.measureFrom && now < c.stopAt {
		c.Completed++
		c.Latency.Record(int64(now - req.at))
	}
	if c.StreamSpacing > 0 {
		c.eng.After(c.StreamSpacing, c.refire[req.stream])
	} else {
		c.fire(req.stream)
	}
}

// Stop halts new issues.
func (c *ClosedLoop) Stop() { c.stopped = true }

// Outstanding reports in-flight requests.
func (c *ClosedLoop) Outstanding() int { return c.pending.Len() }

// Throughput returns completions per second over the measurement window,
// evaluated at the engine's current time (or stopAt if passed).
func (c *ClosedLoop) Throughput() float64 {
	end := c.eng.Now()
	if end > c.stopAt {
		end = c.stopAt
	}
	window := (end - c.measureFrom).Seconds()
	if window <= 0 {
		return 0
	}
	return float64(c.Completed) / window
}
