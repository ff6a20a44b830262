package handshake

import (
	"bytes"
	"crypto/ecdh"
	"errors"
	"io"
	"math/big"
	"testing"
)

// drawByNewPrivateKey is the draw the exchange made before DrawScalar:
// 32 bytes at a time, each tried as a key by ecdh.P256().NewPrivateKey,
// for at most 128 draws.
func drawByNewPrivateKey(r io.Reader) ([]byte, error) {
	buf := make([]byte, 32)
	for i := 0; i < 128; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		if k, err := ecdh.P256().NewPrivateKey(buf); err == nil {
			return k.Bytes(), nil
		}
	}
	return nil, errors.New("no valid P-256 scalar after 128 draws")
}

// FuzzScalarDraw checks that DrawScalar accepts exactly the 32-byte
// strings ecdh.P256().NewPrivateKey accepts, returns the same scalar and
// consumes the same reader bytes as a draw that asks NewPrivateKey,
// whatever the reader holds.
func FuzzScalarDraw(f *testing.F) {
	n := new(big.Int).SetBytes(p256Order[:])
	scalar := func(x *big.Int) []byte { return x.FillBytes(make([]byte, 32)) }
	one := big.NewInt(1)
	f.Add(make([]byte, 32))                                                 // 0
	f.Add(scalar(one))                                                      // 1
	f.Add(scalar(new(big.Int).Sub(n, one)))                                 // n−1
	f.Add(scalar(n))                                                        // n
	f.Add(scalar(new(big.Int).Add(n, one)))                                 // n+1
	f.Add(bytes.Repeat([]byte{0xff}, 32))                                   // 2²⁵⁶−1
	f.Add(append(scalar(n), scalar(big.NewInt(7))...))                      // first draw rejected
	f.Add(append(append(make([]byte, 32), scalar(n)...), 0x01, 0x02, 0x03)) // two rejected, then short
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := drawByNewPrivateKey(bytes.NewReader(data))
		r := bytes.NewReader(data)
		got, err := DrawScalar(r)
		if (err == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("DrawScalar = %x, %v; NewPrivateKey's draw = %x, %v", got, err, want, wantErr)
		}
		ref := bytes.NewReader(data)
		_, _ = drawByNewPrivateKey(ref)
		if r.Len() != ref.Len() {
			t.Fatalf("DrawScalar left %d bytes unread; NewPrivateKey's draw left %d", r.Len(), ref.Len())
		}
	})
}
