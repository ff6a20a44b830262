package experiments

// This file holds the bigworld smoke point: the load-sweep measurement
// on a 64-host single-switch fabric — an order of magnitude past the
// default worlds, and the first wall-clock datapoint on the road to the
// 256-host leaf–spine target. The offered load is the same fraction of
// the one server link as the default sweep, so the aggregate traffic is
// comparable; what scales with the host count is everything the event
// queue feels — hundreds of live connections, each holding pacing and
// RTO timers, exactly the deep-pending regime the timing wheel exists
// for.

// BigWorld parameters.
const (
	// BigWorldHosts is the fabric size: 63 clients + 1 server behind one
	// output-queued switch.
	BigWorldHosts = 64
	// BigWorldLoad is the single offered-load fraction measured — the
	// middle of the default sweep, below every stack's saturation knee.
	BigWorldLoad = 0.5
	// BigWorldSeed seeds the world; offset from the default sweep's
	// seed range so the two experiments never share a world seed.
	BigWorldSeed = 64000
)

// BigWorldLineup is the stack subset the smoke point runs: plaintext
// TCP as the floor, kernel-TLS as the stream-encryption midpoint, and
// SMT-hw as the paper's headline stack — one representative per
// transport/record regime rather than the full six-way lineup, to keep
// the 64-host point a smoke test rather than a second sweep.
func BigWorldLineup() []StackSpec {
	return []StackSpec{mustStack("TCP"), mustStack("kTLS-sw"), mustStack("SMT-hw")}
}

// MeasureBigWorld runs one 64-host load-sweep point for sys.
func MeasureBigWorld(sys FabricSystem, seed int64, pa ...*pointAudit) (LoadSweepRow, error) {
	return measureLoadSweepOn(sys, BigWorldLoad, seed, loadSweepParams{
		clients: BigWorldHosts - 1,
		streams: LoadSweepStreams,
		buffer:  LoadSweepBufferBytes,
	}, pa)
}
