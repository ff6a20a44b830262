// Package poolfix is analysis-only fixture data for the poolowner
// analyzer (see testdata/determinism for the want-comment convention).
package poolfix

import "smt/internal/wire"

// Taker may consume packets handed to it, but an interface method has no
// body to infer a summary from, so a call through it is never a
// transfer.
type Taker interface {
	Consume(p *wire.Packet)
}

// plainCall does not consume, so passing a packet to it does not count
// as a transfer — the analyzer's teeth.
func plainCall(p *wire.Packet) {}

type holder struct {
	pkt  *wire.Packet
	take func(*wire.Packet) // a callback slot: no body to infer from either
}

// stash consumes its packet on every path (the field store hands
// ownership to the holder): the call-graph summary proves it, and call
// sites get credit interprocedurally.
func stash(h *holder, p *wire.Packet) {
	h.pkt = p
}

// stashMaybe consumes only on one path, so its summary proves nothing
// and call sites must not get credit.
func stashMaybe(h *holder, p *wire.Packet, cond bool) {
	if cond {
		h.pkt = p
	}
}

func leakOnEarlyReturn(pool *wire.PacketPool, cond bool) {
	pkt := pool.Get() // want "may leak"
	if cond {
		return
	}
	pkt.Release()
}

func leakViaPlainCallee(pool *wire.PacketPool) {
	pkt := pool.Get() // want "may leak"
	plainCall(pkt)
}

func leakViaInterface(pool *wire.PacketPool, t Taker) {
	pkt := pool.Get() // want "may leak"
	t.Consume(pkt)
}

func leakViaFuncField(pool *wire.PacketPool, h *holder) {
	pkt := pool.Get() // want "may leak"
	h.take(pkt)
}

func leakViaPartialConsumer(pool *wire.PacketPool, h *holder, cond bool) {
	pkt := pool.Get() // want "may leak"
	stashMaybe(h, pkt, cond)
}

func leakOneBranch(pool *wire.PacketPool, cond bool) {
	pkt := pool.Get() // want "may leak"
	if cond {
		pkt.Release()
	}
}

func discarded(pool *wire.PacketPool) {
	pool.Get()     // want "discarded at acquisition"
	_ = pool.Get() // want "discarded at acquisition"
}

func cleanBothBranches(pool *wire.PacketPool, cond bool) {
	pkt := pool.Get()
	if cond {
		pkt.Release()
		return
	}
	pkt.Release()
}

func cleanDefer(pool *wire.PacketPool) {
	pkt := pool.Get()
	defer pkt.Release()
	plainCall(pkt)
}

func cleanInferredTransfer(pool *wire.PacketPool, h *holder) {
	pkt := pool.Get()
	stash(h, pkt)
}

func cleanReturn(pool *wire.PacketPool) *wire.Packet {
	pkt := pool.Get()
	return pkt
}

func cleanStoreField(pool *wire.PacketPool, h *holder) {
	pkt := pool.Get()
	h.pkt = pkt
}

func cleanAppend(pool *wire.PacketPool, sink []*wire.Packet) []*wire.Packet {
	pkt := pool.Get()
	sink = append(sink, pkt)
	return sink
}

func cleanSend(pool *wire.PacketPool, ch chan *wire.Packet) {
	pkt := pool.Get()
	ch <- pkt
}

// queue is a generic container: push stores its item on every path, so
// its summary consumes the packet an instantiation passes it; peek does
// not store, so it gets no credit.
type queue[T any] struct{ items []T }

func (q *queue[T]) push(x T) { q.items = append(q.items, x) }

func (q *queue[T]) peek(x T) {}

func cleanGenericPush(pool *wire.PacketPool, q *queue[*wire.Packet]) {
	pkt := pool.Get()
	q.push(pkt)
}

func leakViaGenericNonConsumer(pool *wire.PacketPool, q *queue[*wire.Packet]) {
	pkt := pool.Get() // want "may leak"
	q.peek(pkt)
}
