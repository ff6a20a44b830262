package experiments

import (
	"smt/internal/core"
	"smt/internal/handshake"
	"smt/internal/homa"
	"smt/internal/rpc"
	"smt/internal/sim"
)

// Fig12Sizes are the x-axis RPC sizes of Figure 12; Fig12Modes are the
// key-exchange variants.
var (
	Fig12Sizes = []int{64, 128, 256, 1024, 4096, 8192}
	Fig12Modes = []handshake.Mode{
		handshake.Init0RTT, handshake.Init0RTTFS, handshake.Init1RTT,
		handshake.Rsmp, handshake.RsmpFS,
	}
)

// Fig12Row is one (mode, size) point: virtual time from cold start to
// the first RPC response under that key-exchange variant.
type Fig12Row struct {
	Mode   string
	Size   int
	TimeUs float64
}

// MeasureKeyExchange runs one key-exchange variant followed by one RPC of
// the given size over the freshly keyed SMT session, returning the total
// completion time — the §5.6 methodology. Key pre-generation is enabled
// for the SMT modes (§4.5.1); the 1-RTT baseline is the stock handshake.
// Short-chain verification would change nothing here: only the 1-RTT
// baseline verifies a certificate chain (C3.2).
func MeasureKeyExchange(mode handshake.Mode, size int, seed int64, pa ...*pointAudit) (Fig12Row, error) {
	w := audited(NewWorld(seed), pa)
	srv := core.NewSocket(w.Server, core.Config{Transport: homa.Config{Port: ServerPort}})
	cli := core.NewSocket(w.Client, core.Config{})
	srv.OnMessage(func(d homa.Delivery) {
		id, respSize, err := rpc.Decode(d.Payload)
		if err != nil {
			return
		}
		srv.Send(d.Src, d.SrcPort, rpc.Encode(id, 0, int(respSize)), d.AppThread)
	})
	var doneAt sim.Time
	cli.OnMessage(func(d homa.Delivery) { doneAt = d.Recv })

	opts := handshake.Options{Mode: mode}
	if mode != handshake.Init1RTT {
		opts.PreGeneratedKeys = true
	}
	// One-way flight time for a small handshake packet in this world.
	oneWay := w.CM.PropDelay + w.CM.NICFixedDelay + w.CM.Serialize(200) + 2*sim.Microsecond

	var xerr error
	w.Eng.At(0, func() {
		err := handshake.Exchange(w.Client, w.Server, oneWay, opts, func(res handshake.Result) {
			if res.Err != nil {
				xerr = res.Err
				return
			}
			if _, err := cli.RegisterSession(ServerAddr, ServerPort, res.Client); err != nil {
				xerr = err
				return
			}
			if _, err := srv.RegisterSession(ClientAddr, cli.Port(), res.Server); err != nil {
				xerr = err
				return
			}
			cli.Send(ServerAddr, ServerPort, rpc.Encode(1, uint32(size), size), 0)
		})
		if err != nil {
			xerr = err
		}
	})
	w.Eng.RunUntil(50 * sim.Millisecond)
	return Fig12Row{Mode: mode.String(), Size: size, TimeUs: float64(doneAt) / 1e3}, xerr
}
