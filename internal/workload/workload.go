// Package workload provides deterministic open-loop load generation
// for the fabric experiments: Poisson arrivals drawn from the engine's
// seeded RNG over pluggable message-size distributions, including a
// heavy-tailed web-search-like mix.
//
// The closed loop of internal/rpc keeps a fixed number of requests
// outstanding, so under overload it throttles itself and queueing
// hides inside a lower completion rate. The open loop here issues
// requests at an externally fixed offered rate regardless of
// completions — the methodology of Homa-style slowdown curves — so
// encryption and transport overheads show up where datacenter papers
// measure them: as queueing-amplified tail slowdown (observed
// completion time divided by the unloaded ideal for that message size).
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"smt/internal/idmap"
	"smt/internal/sim"
	"smt/internal/stats"
)

// Dist is a message-size distribution. Implementations must be
// deterministic given the RNG stream and cheap to sample.
type Dist interface {
	// Name identifies the distribution in artifacts and keys.
	Name() string
	// Sample draws one message size in bytes.
	Sample(rng *rand.Rand) int
	// Mean is the expected size in bytes; the generator converts an
	// offered byte rate into an arrival rate through it.
	Mean() float64
	// Sizes lists the distinct sizes the distribution can produce in
	// ascending order — the support the unloaded-ideal baseline is
	// measured on.
	Sizes() []int
}

// Fixed is the degenerate distribution: every message is Size bytes.
type Fixed int

func (f Fixed) Name() string          { return fmt.Sprintf("fixed%d", int(f)) }
func (f Fixed) Sample(*rand.Rand) int { return int(f) }
func (f Fixed) Mean() float64         { return float64(f) }
func (f Fixed) Sizes() []int          { return []int{int(f)} }

// MixEntry is one (size, weight) atom of a discrete distribution.
type MixEntry struct {
	Size   int
	Weight float64
}

// Mix is a discrete distribution over a finite set of sizes, sampled by
// inverse CDF. Weights are normalized at construction.
type Mix struct {
	name  string
	sizes []int
	cum   []float64 // cumulative probability, same order as sizes
	mean  float64
}

// NewMix builds a Mix from entries (any order; weights need not sum
// to 1). It rejects empty input, non-positive sizes or weights, and
// duplicate sizes.
func NewMix(name string, entries []MixEntry) (*Mix, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("workload: empty mix")
	}
	es := append([]MixEntry(nil), entries...)
	sort.Slice(es, func(i, j int) bool { return es[i].Size < es[j].Size })
	var total float64
	for i, e := range es {
		if e.Size <= 0 || e.Weight <= 0 {
			return nil, fmt.Errorf("workload: bad mix entry %+v", e)
		}
		if i > 0 && es[i-1].Size == e.Size {
			return nil, fmt.Errorf("workload: duplicate mix size %d", e.Size)
		}
		total += e.Weight
	}
	m := &Mix{name: name}
	var cum float64
	for _, e := range es {
		cum += e.Weight / total
		m.sizes = append(m.sizes, e.Size)
		m.cum = append(m.cum, cum)
		m.mean += float64(e.Size) * e.Weight / total
	}
	m.cum[len(m.cum)-1] = 1 // absorb rounding
	return m, nil
}

// MustMix is NewMix for compile-time-constant mix grids (the experiment
// tables): invalid entries there are programming errors, not runtime
// conditions.
func MustMix(name string, entries []MixEntry) *Mix {
	m, err := NewMix(name, entries)
	if err != nil {
		//smt:allow panic -- entries are compile-time experiment constants; a bad grid is a programming error
		panic(err)
	}
	return m
}

func (m *Mix) Name() string { return m.name }

func (m *Mix) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	i := sort.SearchFloat64s(m.cum, u)
	if i >= len(m.sizes) {
		i = len(m.sizes) - 1
	}
	return m.sizes[i]
}

func (m *Mix) Mean() float64 { return m.mean }

func (m *Mix) Sizes() []int { return append([]int(nil), m.sizes...) }

// WebSearch is a heavy-tailed RPC-size mix in the spirit of the
// web-search workloads used for Homa-style slowdown curves: mostly
// small messages with a minority of large ones carrying most of the
// bytes (mean ≈ 11.8 KB, max 64 KB).
func WebSearch() *Mix {
	return MustMix("websearch", []MixEntry{
		{Size: 256, Weight: 0.40},
		{Size: 1024, Weight: 0.25},
		{Size: 8192, Weight: 0.20},
		{Size: 65536, Weight: 0.15},
	})
}

// sentReq is the issue-time record the generator keeps per in-flight
// request.
type sentReq struct {
	at   sim.Time
	size int
}

// OpenLoop issues requests with exponential (Poisson-process)
// interarrival times at a fixed aggregate rate, spread round-robin
// across M clients × S streams, independent of completions. All
// randomness (interarrival gaps, message sizes) flows from the
// engine's seeded RNG, so runs are exactly reproducible.
type OpenLoop struct {
	eng     *sim.Engine
	dist    Dist
	issue   func(client, stream int, reqID uint64, size int)
	clients int
	streams int
	rate    float64 // aggregate arrivals per second

	warm      sim.Time
	stop      sim.Time
	nextID    uint64
	sent      idmap.Map[sentReq] // by in-flight reqID
	arrivalFn func()             // prebuilt arrival callback (method values allocate)

	// Ideal maps message size to its unloaded ideal completion time in
	// nanoseconds. When set, each in-window completion also records
	// observed/ideal into Slowdown.
	Ideal map[int]float64

	// Latency holds in-window completion times (ns); Slowdown holds the
	// per-completion observed/ideal ratios.
	Latency  stats.Histogram
	Slowdown stats.Ratio
	// Issued / IssuedBytes count in-window arrivals (the realized
	// offered load); Completed / CompletedBytes count in-window
	// completions (the goodput numerator).
	Issued         uint64
	IssuedBytes    uint64
	Completed      uint64
	CompletedBytes uint64
}

// NewOpenLoop creates a generator issuing rate requests/second spread
// over clients × streams via issue. Call Start to begin the arrival
// process and Done from the response path.
func NewOpenLoop(eng *sim.Engine, dist Dist, clients, streams int, rate float64,
	issue func(client, stream int, reqID uint64, size int)) (*OpenLoop, error) {
	if clients <= 0 || streams <= 0 {
		return nil, fmt.Errorf("workload: need clients, streams >= 1; got %d, %d", clients, streams)
	}
	if rate <= 0 {
		return nil, fmt.Errorf("workload: need rate > 0; got %g", rate)
	}
	o := &OpenLoop{
		eng:     eng,
		dist:    dist,
		issue:   issue,
		clients: clients,
		streams: streams,
		rate:    rate,
	}
	o.arrivalFn = o.arrival
	return o, nil
}

// Start launches the Poisson arrival process: the first arrival is one
// interarrival gap from now, and arrivals stop at stop (absolute
// virtual time). Latency/slowdown and the Issued/Completed counters
// cover [warm, stop) only.
func (o *OpenLoop) Start(warm, stop sim.Time) {
	o.warm, o.stop = warm, stop
	o.eng.After(o.gap(), o.arrivalFn)
}

// gap draws one exponential interarrival interval.
func (o *OpenLoop) gap() sim.Time {
	return sim.Time(o.eng.Rand().ExpFloat64() / o.rate * float64(sim.Second))
}

// arrival issues one request and rearms the next arrival. Round-robin
// placement spreads consecutive arrivals across clients first, then
// streams, so every (client, stream) pair carries an equal share.
//
//smt:hotroot
func (o *OpenLoop) arrival() {
	now := o.eng.Now()
	if now >= o.stop {
		return
	}
	size := o.dist.Sample(o.eng.Rand())
	id := o.nextID
	o.nextID++
	client := int(id) % o.clients
	stream := (int(id) / o.clients) % o.streams
	o.sent.Put(id, sentReq{at: now, size: size})
	if now >= o.warm {
		o.Issued++
		o.IssuedBytes += uint64(size)
	}
	o.issue(client, stream, id, size)
	o.eng.After(o.gap(), o.arrivalFn)
}

// Done reports the completion of reqID. Only requests both issued and
// completed inside [warm, stop) are measured — the same boundary the
// Issued counters use, so Completed never exceeds Issued and goodput
// never exceeds offered load. Stragglers and duplicates are ignored.
func (o *OpenLoop) Done(reqID uint64) {
	req, ok := o.sent.Delete(reqID)
	if !ok {
		return
	}
	now := o.eng.Now()
	if req.at < o.warm || now >= o.stop {
		return
	}
	o.Completed++
	o.CompletedBytes += uint64(req.size)
	lat := now - req.at
	o.Latency.Record(int64(lat))
	if ideal, ok := o.Ideal[req.size]; ok && ideal > 0 {
		o.Slowdown.Observe(float64(lat) / ideal)
	}
}

// Outstanding reports requests issued but not yet completed.
func (o *OpenLoop) Outstanding() int { return o.sent.Len() }
