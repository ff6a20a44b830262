// Package cpusim models the host: CPU cores split into application and
// softirq (stack) pools, RSS-style packet steering, and the dispatch path
// from NIC receive into transport handlers. Head-of-line blocking at a
// CPU core — the paper's central motivation (§2) — emerges naturally:
// each core is a serial sim.Resource, so a small message's processing
// waits behind a large one steered to the same core.
package cpusim

import (
	"fmt"

	"smt/internal/cost"
	"smt/internal/netsim"
	"smt/internal/nicsim"
	"smt/internal/sim"
	"smt/internal/wire"
)

// Handler is a transport protocol instance bound to a (proto, port). The
// host steers each received packet to a softirq core chosen by the
// handler, charges the handler's receive cost on that core, then invokes
// HandlePacket there.
type Handler interface {
	// SteerCore picks the softirq core index in [0, ncores) for pkt.
	// Connection-oriented transports hash the 5-tuple (pinning a flow to
	// one core); message-based transports may pick per message.
	SteerCore(pkt *wire.Packet, ncores int) int
	// RxCost is the CPU time the stack spends on pkt in softirq context.
	RxCost(pkt *wire.Packet) sim.Time
	// HandlePacket processes pkt; it runs at the virtual time the
	// steered core finishes RxCost.
	HandlePacket(pkt *wire.Packet, core int)
}

type bindKey struct {
	proto uint8
	port  uint16
}

// Host is one machine: NIC, softirq core pool, application core pool.
type Host struct {
	Eng  *sim.Engine
	CM   *cost.Model
	Addr uint32
	NIC  *nicsim.NIC

	Softirq []*sim.Resource
	App     []*sim.Resource

	handlers map[bindKey]Handler
	nextPort uint16

	// StreamConns counts active stream-transport (TCP-family)
	// connections on this host; the cost model charges per-connection
	// metadata cache pollution from it (§2 of the paper).
	StreamConns int

	// GROLastFlow / GROLastRx hold the NIC-level GRO aggregation state:
	// the flow hash of the most recently received packet and its arrival
	// time. Handlers use them to decide whether a packet merges into the
	// previous aggregate (same flow, back to back) or starts a new one,
	// and whether the NAPI poll loop had gone idle.
	GROLastFlow uint64
	GROLastRx   sim.Time

	// DroppedNoHandler counts packets with no bound handler.
	DroppedNoHandler uint64

	dispFree []*dispatchEvent // pooled softirq handoffs
}

// dispatchEvent is the pooled softirq handoff: one received packet
// waiting for its steered core to finish the stack's RxCost.
type dispatchEvent struct {
	h    *Host
	hd   Handler
	pkt  *wire.Packet
	core int
}

// Run implements sim.Action.
func (d *dispatchEvent) Run() {
	h, hd, pkt, core := d.h, d.hd, d.pkt, d.core
	d.hd = nil
	d.pkt = nil
	h.dispFree = append(h.dispFree, d)
	hd.HandlePacket(pkt, core)
}

// NewHost creates a host with the given core counts, attaches its NIC to
// net, and wires receive dispatch. The NIC gets one queue per core (app
// cores first, then softirq cores), matching the per-core TX queue layout
// of a Linux host.
func NewHost(eng *sim.Engine, cm *cost.Model, net *netsim.Network, addr uint32, nSoftirq, nApp int) *Host {
	if nSoftirq < 1 || nApp < 1 {
		//smt:allow panic -- construction-time topology contract; a coreless host is a harness bug, not a runtime condition
		panic("cpusim: need at least one softirq and one app core")
	}
	h := &Host{
		Eng: eng, CM: cm, Addr: addr,
		handlers: make(map[bindKey]Handler),
		nextPort: 40000,
	}
	for i := 0; i < nSoftirq; i++ {
		h.Softirq = append(h.Softirq, sim.NewResource(eng))
	}
	for i := 0; i < nApp; i++ {
		h.App = append(h.App, sim.NewResource(eng))
	}
	h.NIC = nicsim.New(eng, cm, net, addr, nApp+nSoftirq)
	h.NIC.OnRx = h.dispatch
	return h
}

// AppQueue returns the NIC TX queue used when transmitting from app
// thread i (syscall context).
func (h *Host) AppQueue(i int) int { return i % len(h.App) }

// SoftirqQueue returns the NIC TX queue used when transmitting from
// softirq core c (pacer / response-to-interrupt context).
func (h *Host) SoftirqQueue(c int) int { return len(h.App) + c%len(h.Softirq) }

// Bind registers a handler for (proto, port). Binding an in-use pair
// panics: it is a harness bug, not a runtime condition.
func (h *Host) Bind(proto uint8, port uint16, hd Handler) {
	k := bindKey{proto, port}
	if _, dup := h.handlers[k]; dup {
		//smt:allow panic -- wiring-time bind conflict; silently replacing a handler would misroute packets between stacks
		panic(fmt.Sprintf("cpusim: port %d/%d already bound", proto, port))
	}
	h.handlers[k] = hd
}

// Unbind removes a binding.
func (h *Host) Unbind(proto uint8, port uint16) {
	delete(h.handlers, bindKey{proto, port})
}

// AllocPort returns a fresh ephemeral port.
func (h *Host) AllocPort() uint16 {
	p := h.nextPort
	h.nextPort++
	if h.nextPort == 0 {
		h.nextPort = 40000
	}
	return p
}

// dispatch is the NIC RX entry point: steer, charge, deliver. The packet
// is owned by the handler from here on: HandlePacket (or work it runs
// synchronously) must Release it once the payload has been consumed.
func (h *Host) dispatch(pkt *wire.Packet) {
	hd, ok := h.handlers[bindKey{pkt.IP.Protocol, pkt.Overlay.DstPort}]
	if !ok {
		h.DroppedNoHandler++
		pkt.Release()
		return
	}
	core := hd.SteerCore(pkt, len(h.Softirq))
	if core < 0 || core >= len(h.Softirq) {
		core = 0
	}
	var d *dispatchEvent
	if l := len(h.dispFree); l > 0 {
		d = h.dispFree[l-1]
		h.dispFree[l-1] = nil
		h.dispFree = h.dispFree[:l-1]
	} else {
		d = &dispatchEvent{h: h}
	}
	d.hd, d.pkt, d.core = hd, pkt, core
	h.Softirq[core].AcquireAction(hd.RxCost(pkt), d)
}

// RunApp charges cpu on application core (thread % len(App)) and runs fn
// when it completes.
func (h *Host) RunApp(thread int, cpu sim.Time, fn func()) {
	h.App[thread%len(h.App)].Acquire(cpu, fn)
}

// RunSoftirq charges cpu on softirq core and runs fn when it completes.
func (h *Host) RunSoftirq(core int, cpu sim.Time, fn func()) {
	h.Softirq[core%len(h.Softirq)].Acquire(cpu, fn)
}

// LeastLoadedSoftirq returns the softirq core with the shortest backlog —
// the steering target Homa-style SRPT message scheduling uses.
func (h *Host) LeastLoadedSoftirq() int {
	best, bestDelay := 0, h.Softirq[0].QueueDelay()
	for i := 1; i < len(h.Softirq); i++ {
		if d := h.Softirq[i].QueueDelay(); d < bestDelay {
			best, bestDelay = i, d
		}
	}
	return best
}

// LeastLoadedApp returns the app core index with the shortest backlog.
func (h *Host) LeastLoadedApp() int {
	best, bestDelay := 0, h.App[0].QueueDelay()
	for i := 1; i < len(h.App); i++ {
		if d := h.App[i].QueueDelay(); d < bestDelay {
			best, bestDelay = i, d
		}
	}
	return best
}

// CPUBusy sums busy time across both pools (for the §5.2 CPU-usage
// comparison).
func (h *Host) CPUBusy() (app, softirq sim.Time) {
	for _, r := range h.App {
		app += r.Busy
	}
	for _, r := range h.Softirq {
		softirq += r.Busy
	}
	return
}
