package tcpsim_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"smt/internal/cost"
	"smt/internal/ktls"
	"smt/internal/tcpls"
	"smt/internal/tcpsim"
)

// sealedStream encodes msgs through enc as a connection would (each
// behind its 4-byte length prefix) and returns the stream bytes as they
// leave the NIC, offloaded records sealed the way the NIC seals them,
// the framed plaintext the stream carries, and the offset of every
// chunk (record) boundary.
func sealedStream(t *testing.T, enc tcpsim.Codec, msgs [][]byte) (stream, framed []byte, bounds []int) {
	t.Helper()
	for _, m := range msgs {
		prefix := binary.BigEndian.AppendUint32(nil, uint32(len(m)))
		chunks, _ := enc.EncodeMessage(prefix, m)
		for _, ch := range chunks {
			b := append([]byte(nil), ch.Bytes...)
			for _, r := range ch.Records {
				if err := ch.Keys.SealInPlace(b, r.Off, r.InnerLen, r.Seq); err != nil {
					t.Fatal(err)
				}
			}
			stream = append(stream, b...)
			bounds = append(bounds, len(stream))
		}
		framed = append(append(framed, prefix...), m...)
	}
	return stream, framed, bounds
}

// TestDecodeStreamSplitPoints feeds one multi-record stream to each
// stream codec's DecodeStreamTo in batches cut at every offset of
// windows that split record headers and leave records straddling the
// cut, and in runs of fixed-size batches (a byte at a time, 7 bytes,
// one recv cycle). The plaintext appended behind dst's existing bytes
// must equal the framed input, and those bytes must hold their values.
// dst starts longer than any record header a codec opens over it, and
// again empty and shorter than tcpls's stream header. A flipped
// ciphertext byte must end the stream in the codec's authentication
// error, on that call and on every later one.
func TestDecodeStreamSplitPoints(t *testing.T) {
	cli, srv := ktls.PairKeys(9)
	msgs := [][]byte{content(40000, 1), content(1, 2), content(ktls.RecPlain-4, 3), content(3000, 4)}
	for _, sc := range streamCodecs {
		t.Run(sc.name, func(t *testing.T) {
			enc, err := sc.make(cost.Default(), cli)
			if err != nil {
				t.Fatal(err)
			}
			stream, framed, bounds := sealedStream(t, enc, msgs)
			var authErr error
			switch sc.name {
			case "TCPLS":
				authErr = tcpls.ErrAuth
			case "TCP":
			default:
				authErr = ktls.ErrAuth
			}
			prefix := "bytes already in dst"
			decode := func(stream []byte, cuts []int) ([]byte, error) {
				dec, err := sc.make(cost.Default(), srv)
				if err != nil {
					t.Fatal(err)
				}
				dst := append(make([]byte, 0, len(prefix)+len(framed)), prefix...)
				from := 0
				for _, cut := range append(cuts, len(stream)) {
					if dst, _, err = dec.DecodeStreamTo(dst, stream[from:cut]); err != nil {
						// A dead stream stays dead.
						if _, _, again := dec.DecodeStreamTo(dst, stream[cut:]); !errors.Is(again, err) {
							t.Fatalf("call after %v returned %v", err, again)
						}
						break
					}
					from = cut
				}
				if string(dst[:len(prefix)]) != prefix {
					t.Fatalf("cuts %v: dst's existing bytes changed to %q", cuts, dst[:len(prefix)])
				}
				if err != nil && !bytes.HasPrefix(framed, dst[len(prefix):]) {
					t.Fatalf("cuts %v: the plaintext before the failed record changed", cuts)
				}
				return dst[len(prefix):], err
			}
			check := func(what string, cuts []int) {
				got, err := decode(stream, cuts)
				if err != nil || !bytes.Equal(got, framed) {
					t.Fatalf("%s %v: %d plaintext bytes, error %v; want the %d framed input bytes", what, cuts, len(got), err, len(framed))
				}
			}
			// Two-way cuts around the stream start and the first two
			// record boundaries (every header split, and records cut
			// anywhere near their ends), and three-way cuts that leave a
			// record straddling both.
			for _, at := range []int{0, bounds[0], bounds[1]} {
				for cut := max(at-24, 0); cut <= min(at+24, len(stream)); cut++ {
					check("cut", []int{cut})
					check("cuts", []int{cut, min(cut+bounds[0]/2, len(stream))})
				}
			}
			for _, batch := range []int{1, 7, cost.Default().TCPDeliverBatch} {
				var cuts []int
				for cut := batch; cut < len(stream); cut += batch {
					cuts = append(cuts, cut)
				}
				check(fmt.Sprintf("%d-byte batches", batch), cuts)
			}
			if authErr != nil {
				bad := append([]byte(nil), stream...)
				bad[bounds[1]+100] ^= 0x01 // a ciphertext byte of the second record
				for _, cut := range []int{bounds[1] + 50, bounds[1] + 150, bounds[1] + 3, bounds[0]} {
					if _, err := decode(bad, []int{cut}); !errors.Is(err, authErr) {
						t.Fatalf("flipped byte, cut at %d: error %v, want %v", cut, err, authErr)
					}
				}
				bad[bounds[1]+100] ^= 0x01
				bad[100] ^= 0x01 // a ciphertext byte of the first record
				if _, err := decode(bad, nil); !errors.Is(err, authErr) {
					t.Fatalf("flipped byte in the first record: error %v, want %v", err, authErr)
				}
			}
			// A dst shorter than a record header: the first record has
			// no room before dst's end, the later ones do.
			for _, prefix = range []string{"", "short"} {
				for _, batch := range []int{7, cost.Default().TCPDeliverBatch} {
					var cuts []int
					for cut := batch; cut < len(stream); cut += batch {
						cuts = append(cuts, cut)
					}
					check(fmt.Sprintf("dst %q, %d-byte batches", prefix, batch), cuts)
				}
				check(fmt.Sprintf("dst %q, cut", prefix), []int{bounds[0] + 3})
				if authErr != nil {
					bad := append([]byte(nil), stream...)
					bad[100] ^= 0x01 // a ciphertext byte of the first record
					if _, err := decode(bad, []int{bounds[0]}); !errors.Is(err, authErr) {
						t.Fatalf("dst %q, flipped byte: error %v, want %v", prefix, err, authErr)
					}
				}
			}
		})
	}
}
