package experiments

import (
	"bytes"

	"smt/internal/cost"
	"smt/internal/netsim"
	"smt/internal/nicsim"
	"smt/internal/sim"
	"smt/internal/tlsrec"
	"smt/internal/wire"
)

// --- Figure 10: TCPLS comparison ---

// Fig10Sizes are the x-axis RPC sizes of Figure 10.
var Fig10Sizes = []int{64, 256, 1024, 4096, 16384}

// --- Figure 11: effect of TSO ---

// Fig11Sizes are the x-axis RPC sizes of Figure 11.
var Fig11Sizes = []int{512, 1024, 2048, 4096, 8192}

// --- Figure 2: autonomous-offload resync semantics ---

// Fig2Row reports one AO scenario outcome.
type Fig2Row struct {
	Scenario  string
	Decrypted bool // did the receiver's AEAD accept the segment?
	Corrupted uint64
	Resyncs   uint64
}

// fig2Scenarios is the Figure 2 scenario grid.
var fig2Scenarios = []struct {
	name   string
	seq    uint64
	resync bool
}{
	{"In-seq (S1,S2)", 2, false},
	{"Out-seq (S1,S3)", 3, false},
	{"Out-resync (S1,R3,S3)", 3, true},
}

// Fig2Scenario runs one Figure 2 scenario by index on an engine seeded
// with seed.
func Fig2Scenario(i int, seed int64) Fig2Row {
	run := func(name string, seq uint64, resync bool) Fig2Row {
		eng := sim.NewEngine(seed)
		cm := cost.Default()
		net := netsim.New(eng, cm)
		nic := nicsim.New(eng, cm, net, 1, 1)
		var got *wire.Packet
		net.Attach(2, func(p *wire.Packet) { got = p })
		keys, _ := tlsrec.NewAEAD(bytes.Repeat([]byte{1}, 16), bytes.Repeat([]byte{2}, 12))
		mkSeg := func(s uint64, r bool, msg string) *nicsim.TxSegment {
			payload := make([]byte, tlsrec.RecordWireLen(len(msg), 0))
			tlsrec.WriteRecordShell(payload, 0, wire.RecordTypeApplicationData, []byte(msg), 0)
			return &nicsim.TxSegment{
				Pkt: &wire.Packet{
					IP:      wire.IPv4Header{TTL: 64, Protocol: wire.ProtoSMT, Src: 1, Dst: 2},
					Overlay: wire.OverlayHeader{Type: wire.TypeData},
					Payload: payload,
				},
				MTU:     wire.DefaultMTU,
				Records: []nicsim.RecordDesc{{Off: 0, InnerLen: len(msg) + 1, Seq: s}},
				Keys:    keys, CtxID: 9, Resync: r,
			}
		}
		eng.At(0, func() {
			nic.SendSegment(0, mkSeg(1, false, "S1")) // sets the counter to 1, then 2 after sealing
			nic.SendSegment(0, mkSeg(seq, resync, "SX"))
		})
		eng.Run()
		_, _, err := keys.OpenRecord(seq, got.Payload)
		return Fig2Row{
			Scenario:  name,
			Decrypted: err == nil,
			Corrupted: nic.Stats.Corrupted,
			Resyncs:   nic.Stats.Resyncs,
		}
	}
	s := fig2Scenarios[i]
	return run(s.name, s.seq, s.resync)
}

// --- Figure 5 / Table 1 ---

// Fig5 returns the bit-allocation trade-off matrix.
func Fig5() []tlsrec.Fig5Row { return tlsrec.Fig5Table() }

// Table1Row is one row of the paper's design-space matrix.
type Table1Row struct {
	System      string
	Encryption  string
	Abstraction string
	Offload     string
	Protocol    string
	Parallelism string
}

// Table1 reproduces Table 1's property matrix for the systems this
// repository implements or models.
func Table1() []Table1Row {
	return []Table1Row{
		{"TcpCrypt", "TcpCrypt", "Stream", "TSO", "TCP", "Conn."},
		{"QUIC", "QUIC-TLS", "Stream", "None", "UDP", "Conn."},
		{"TCPLS", "TLS", "Stream", "TSO", "TCP", "Conn."},
		{"TLS/TCP (kTLS)", "TLS", "Stream", "Enc.+TSO", "TCP", "Conn."},
		{"SMT", "TLS", "Msg.", "Enc.+TSO", "New", "Msg."},
		{"Homa/NDP", "-", "Msg.", "TSO", "New", "Msg."},
		{"MTP", "-", "Msg.", "N/A", "New", "Msg."},
		{"Falcon/UET", "PSP", "Msg.", "Full", "UDP", "Msg. (custom NIC)"},
		{"SRD", "-", "Msg.", "Full", "N/A", "Msg. (custom NIC)"},
		{"KCM/µTCP", "-", "Msg.", "TSO", "TCP", "Conn."},
	}
}
