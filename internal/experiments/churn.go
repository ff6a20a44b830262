package experiments

import (
	"fmt"

	"smt/internal/netsim"
	"smt/internal/rpc"
	"smt/internal/sim"
	"smt/internal/stats"
)

// This file holds the connection-churn experiment: short-lived client
// connections arrive open-loop at a swept rate against one server,
// each running its stack's live key exchange over the fabric (dial.go)
// before carrying a single RPC and closing. Where the steady-state
// sweeps (fig7, loadsweep) measure the record layer with sessions
// pre-established, churn measures connection *setup*: the latency and
// CPU of the §4.5 handshake variants under concurrency, and the dcdns
// SMT-ticket hit rate with rotation and expiry in the loop.

// ChurnRates sweeps the connection arrival rate (connections/second,
// aggregate across clients). At 16k conn/s a 1-RTT exchange's ~610 µs
// of server CPU approaches saturation of the 12-thread accept pool
// (ρ ≈ 0.81) while 0-RTT (~480 µs) stays clear of it (ρ ≈ 0.64) — the
// regime where the exchange variants separate in the tail.
var ChurnRates = []float64{2000, 8000, 16000}

// Fixed churn parameters.
const (
	// ChurnClients is the number of client hosts dialing.
	ChurnClients = 4
	// ChurnTicketTTL is the dcdns rotation period. Hours of virtual
	// time per point are unaffordable, so the TTL is compressed to a
	// few expiries per measurement window; the rotation *mechanics*
	// (lazy re-mint on miss, expiry-boundary inclusive validity) are
	// identical to the hourly production setting (dcdns tests pin
	// them at the hour scale).
	ChurnTicketTTL = 6 * sim.Millisecond
	// churnReqBytes/churnRespBytes size the single RPC each
	// connection carries before closing.
	churnReqBytes  = 2048
	churnRespBytes = rpc.MinSize
	// churnWarm/churnWindow/churnDrain bound one point's virtual
	// time: warm 2 ms, measure 25 ms (≈4 ticket rotations), then
	// drain 5 ms so in-flight handshakes and responses land.
	churnWarm   = 2 * sim.Millisecond
	churnWindow = 25 * sim.Millisecond
	churnDrain  = 5 * sim.Millisecond
)

// ChurnRow is one (system, policy, rate) point of the sweep.
type ChurnRow struct {
	System string
	// Policy is the key-establishment policy ("none", "1rtt", "0rtt",
	// "resume").
	Policy string
	// Rate is the offered connection arrival rate (conn/s).
	Rate float64
	// Dials counts in-window connection arrivals; Established those
	// whose setup (transport + exchange) completed; Completed those
	// whose RPC response arrived; Failed counts setup failures.
	Dials, Established, Completed, Failed uint64
	// SetupP50Us/SetupP99Us are quantiles of connection-setup latency
	// (Dial call to app-traffic admission).
	SetupP50Us, SetupP99Us float64
	// FirstRespP99Us is the p99 of Dial-to-first-response — setup plus
	// one RPC, the end-to-end cost a connection-per-request client sees.
	FirstRespP99Us float64
	// HsCPUFrac is handshake CPU (client+server Table 2 totals) as a
	// fraction of all CPU burned in the world — how much of the
	// machine churn spends keying rather than moving data.
	HsCPUFrac float64
	// Ticket counters from the dcdns resolver (HS0RTT only): a miss is
	// a lookup that found the cached ticket expired and re-minted it.
	TicketHits, TicketMisses, TicketRotations uint64
	// TicketHitRate is TicketHits over all lookups (0 when no lookups).
	TicketHitRate float64
}

// churnTopology: the loadsweep fabric — ChurnClients clients + 1
// server behind a shallow-buffered output-queued switch.
func churnTopology() netsim.Topology {
	return netsim.Topology{
		Hosts:  ChurnClients + 1,
		Switch: &netsim.SwitchConfig{BufferBytes: LoadSweepBufferBytes},
	}
}

// MeasureChurn runs one (spec, policy, rate) point: Poisson connection
// arrivals from ChurnClients hosts, each connection dialing under
// policy, issuing one churnReqBytes RPC and closing on the response.
func MeasureChurn(spec StackSpec, policy HandshakePolicy, rate float64, seed int64, pa ...*pointAudit) (ChurnRow, error) {
	w := audited(NewFabricWorld(seed, churnTopology()), pa)
	d, err := NewDialer(w, spec, DialConfig{Policy: policy, TicketTTL: ChurnTicketTTL})
	if err != nil {
		return ChurnRow{}, err
	}
	clients := w.ClientHosts()

	start := w.Eng.Now()
	warm := start + churnWarm
	stop := warm + churnWindow

	var row ChurnRow
	var setup, firstResp stats.Histogram
	connID := 0
	var arrive func()
	arrive = func() {
		if w.Eng.Now() >= stop {
			return
		}
		client := clients[connID%len(clients)]
		connID++
		at := w.Eng.Now()
		inWindow := at >= warm
		if inWindow {
			row.Dials++
		}
		var conn *DialedConn
		d.Dial(client, func(uint64) {
			if conn == nil {
				return // duplicate delivery after close
			}
			if inWindow {
				row.Completed++
				firstResp.Record(int64(w.Eng.Now() - at))
			}
			conn.Close()
			conn = nil
		}, func(c *DialedConn, err error) {
			if err != nil {
				if inWindow {
					row.Failed++
				}
				return
			}
			conn = c
			if inWindow {
				row.Established++
				setup.Record(int64(c.Ready - c.Start))
			}
			// Every connection sends the same request (reqID 1): with
			// per-connection keys the wire bytes must still differ —
			// the audit tap's cross-flow keystream check proves it.
			c.Issue(1, churnReqBytes, churnRespBytes)
		})
		// Open loop: the next arrival is scheduled regardless of how
		// this connection fares.
		w.Eng.After(sim.Time(w.Eng.Rand().ExpFloat64()/rate*float64(sim.Second)), arrive)
	}
	w.Eng.After(sim.Time(w.Eng.Rand().ExpFloat64()/rate*float64(sim.Second)), arrive)
	w.Eng.RunUntil(stop + churnDrain)

	row.System = spec.Name
	row.Policy = policy.String()
	row.Rate = rate
	row.SetupP50Us = float64(setup.P50()) / 1e3
	row.SetupP99Us = float64(setup.P99()) / 1e3
	row.FirstRespP99Us = float64(firstResp.P99()) / 1e3
	var total sim.Time
	for _, h := range w.Hosts {
		app, softirq := h.CPUBusy()
		total += app + softirq
	}
	if total > 0 {
		row.HsCPUFrac = float64(d.HsCliCPU+d.HsSrvCPU) / float64(total)
	}
	if r := d.Resolver; r != nil {
		row.TicketHits, row.TicketMisses, row.TicketRotations = r.Hits, r.Misses, r.Rotations
		if r.Lookups > 0 {
			row.TicketHitRate = float64(r.Hits) / float64(r.Lookups)
		}
	}
	if row.Established == 0 {
		return row, fmt.Errorf("churn: %s/%s at %.0f conn/s established nothing", spec.Name, row.Policy, rate)
	}
	return row, nil
}

// ChurnSeed derives the per-rate world seed.
func ChurnSeed(rate float64) int64 { return 17000 + int64(rate)/100 }

// churnPoint is one cell of the sweep's (stack, policy) axis. Forced
// marks the non-default-policy variants (they carry an /hs= key
// suffix in the registry).
type churnPoint struct {
	Spec   StackSpec
	Policy HandshakePolicy
	Forced bool
}

// churnPoints enumerates the sweep: every lineup stack at its default
// policy (ChurnPolicyFor), plus a forced-1RTT variant for the stacks
// that default to 0-RTT — the pinned comparison that 0-RTT's missing
// certificate round actually buys setup latency under churn.
func churnPoints(lineup []StackSpec) []churnPoint {
	var pts []churnPoint
	for _, spec := range lineup {
		def := ChurnPolicyFor(spec)
		pts = append(pts, churnPoint{spec, def, false})
		if def == HS0RTT {
			pts = append(pts, churnPoint{spec, HS1RTT, true})
		}
	}
	return pts
}

// churnValues flattens a row for the registry.
func churnValues(r ChurnRow) Values {
	return Values{
		"dials":            float64(r.Dials),
		"established":      float64(r.Established),
		"completed":        float64(r.Completed),
		"failed":           float64(r.Failed),
		"setup_p50_us":     r.SetupP50Us,
		"setup_p99_us":     r.SetupP99Us,
		"first_resp_p99us": r.FirstRespP99Us,
		"hs_cpu_frac":      r.HsCPUFrac,
		"ticket_hits":      float64(r.TicketHits),
		"ticket_misses":    float64(r.TicketMisses),
		"ticket_rotations": float64(r.TicketRotations),
		"ticket_hit_rate":  r.TicketHitRate,
	}
}
