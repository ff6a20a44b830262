package nicsim

import (
	"bytes"
	"encoding/binary"
	"testing"

	"smt/internal/cost"
	"smt/internal/netsim"
	"smt/internal/sim"
	"smt/internal/wire"
)

// FuzzGatherCut checks the gathering TSO cut: a segment handed to the
// NIC as a list of parts must leave as exactly the packets the one-part
// cut of the parts' concatenation gives, header for header (IP ID,
// TSO offset and the rest) and byte for byte, and those packets must
// own their bytes. Each two bytes of lens are one part's length (0 to
// 8,191 bytes, so parts may be empty or span several packets); mtuArg
// picks an MTU from 576 to 9,000 bytes, so part boundaries fall on and
// off packet edges; base is the stack's IPID and TCP sequence base, and
// tcp selects TCP, whose TSO rewrites the sequence number per packet,
// over Homa, whose TSO does not.
func FuzzGatherCut(f *testing.F) {
	f.Add([]byte{0x05, 0xa0, 0x00, 0x00, 0x0b, 0x40}, uint16(1500-576), uint32(0), true)
	f.Add([]byte{0x00, 0x01, 0x1b, 0x58, 0x00, 0x00, 0x05, 0x9f}, uint16(1500-576), uint32(77), false)
	f.Fuzz(func(t *testing.T, lens []byte, mtuArg uint16, base uint32, tcp bool) {
		mtu := 576 + int(mtuArg)%(9000-576+1)
		parts, whole := [][]byte{}, []byte(nil)
		for i := 0; i+2 <= len(lens) && len(parts) < 16; i += 2 {
			p := make([]byte, binary.BigEndian.Uint16(lens[i:])%8192)
			for j := range p {
				p[j] = byte((len(whole)+j)*7 + 3)
			}
			parts, whole = append(parts, p), append(whole, p...)
		}
		var proto uint8 = wire.ProtoHoma
		if tcp {
			proto = wire.ProtoTCP
		}

		eng := sim.NewEngine(1)
		cm := cost.Default()
		net := netsim.New(eng, cm)
		nic := New(eng, cm, net, 1, 1)
		var got []*wire.Packet
		net.Attach(2, func(p *wire.Packet) { got = append(got, p) })
		cut := func(payload []byte, parts [][]byte) []*wire.Packet {
			pkt := nic.AcquirePacket()
			pkt.IP = wire.IPv4Header{TTL: 64, Protocol: proto, Src: 1, Dst: 2, ID: uint16(base)}
			pkt.Overlay = wire.OverlayHeader{SrcPort: 9, DstPort: 10, Type: wire.TypeData, MsgID: 3, MsgLen: uint32(len(whole)), TSOOffset: base}
			pkt.Payload = payload
			released := 0
			got = nil
			nic.SendSegment(0, &TxSegment{Pkt: pkt, Parts: parts, MTU: mtu, Release: func() { released++ }})
			eng.Run()
			if released != 1 {
				t.Fatalf("Release ran %d times, want 1", released)
			}
			return got
		}
		want := cut(whole, nil)
		gathered := cut(nil, parts)
		// The packets own their bytes: scribbling over the parts after
		// the cut must not reach them.
		for _, p := range parts {
			for j := range p {
				p[j] ^= 0xff
			}
		}
		if len(gathered) != len(want) {
			t.Fatalf("%d parts of %d bytes at MTU %d: %d packets, want %d", len(parts), len(whole), mtu, len(gathered), len(want))
		}
		for i, p := range gathered {
			w := want[i]
			if p.IP.ID != uint16(base)+uint16(i) || p.IP != w.IP {
				t.Fatalf("packet %d: IP header %+v, want %+v", i, p.IP, w.IP)
			}
			if p.Overlay != w.Overlay {
				t.Fatalf("packet %d: overlay header %+v, want %+v", i, p.Overlay, w.Overlay)
			}
			if !bytes.Equal(p.Payload, w.Payload) {
				t.Fatalf("packet %d: %d payload bytes differ from the one-part cut's %d", i, len(p.Payload), len(w.Payload))
			}
		}
		if n := len(want); tcp && n > 0 && want[n-1].Overlay.TSOOffset != base+uint32(len(whole)-len(want[n-1].Payload)) {
			t.Fatalf("last packet's TCP sequence %d, want %d", want[n-1].Overlay.TSOOffset, base+uint32(len(whole)-len(want[n-1].Payload)))
		}
	})
}
