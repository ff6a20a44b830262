package hkdfx

import (
	"bytes"
	"crypto/hkdf"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTrafficKey is crypto/tls's TestTrafficKey
// ($GOROOT/src/crypto/tls/key_schedule_test.go, from
// draft-ietf-tls-tls13-vectors): the AES-128-GCM key and IV that
// HKDF-Expand-Label derives from a traffic secret.
func TestTrafficKey(t *testing.T) {
	secret := unhex(t, "b67b7d690cc16c4e75e54213cb2d37b4e9c912bcded9105d42befd59d391ad38")
	for _, c := range []struct {
		label string
		n     int
		want  string
	}{
		{"key", 16, "3fce516009c21727d0f2e4e86ee403bc"},
		{"iv", 12, "5d313eb2671276ee13000b30"},
	} {
		got, err := ExpandLabel(secret, c.label, nil, c.n)
		if err != nil || hex.EncodeToString(got) != c.want {
			t.Errorf("ExpandLabel(%q) = %x, %v; want %s", c.label, got, err, c.want)
		}
	}
}

// TestDeriveSecretACVP walks the NIST ACVP TLS 1.3 KDF vector that
// crypto/tls's TestACVPVectors checks (same file): every traffic,
// exporter and resumption secret of a PSK-DHE schedule, each a
// Derive-Secret over the transcript so far, with crypto/hkdf's Extract
// between the stages.
func TestDeriveSecretACVP(t *testing.T) {
	psk := unhex(t, "56288b726c73829f7a3e47b103837c8139acf552e7530c7a710b35ed41191698")
	dhe := unhex(t, "effe9ec26aa29fd750dfa6a10b944d74071595b27ee88887d5e11c84590b5cc3")
	helloClient := unhex(t, "e9137679e582ba7c1db41cf725f86c6d09c8c05f297bad9a65b552eaf524fde4")
	helloServer := unhex(t, "23eccfd030790748c8f8d8a656fd98d717f1b62af3712f97211d2070b499f98a")
	finishedServer := unhex(t, "c750eda6696cd101b142bd79e00e6ac8c5f2c0abc78dd64f4d991326659e9299")
	finishedClient := unhex(t, "62a62fa75563ed4fdcaa0bc16567b314871c304acf06b0ffc3f08c1797594d43")
	extract := func(secret, salt []byte) []byte {
		prk, err := hkdf.Extract(sha256.New, secret, salt)
		if err != nil {
			t.Fatal(err)
		}
		return prk
	}
	derive := func(secret []byte, label string, transcript ...[]byte) string {
		s, err := DeriveSecret(secret, label, bytes.Join(transcript, nil))
		if err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(s)
	}
	deriveSalt := func(secret []byte) []byte { return unhex(t, derive(secret, "derived")) }
	early := extract(psk, nil)
	hs := extract(dhe, deriveSalt(early))
	master := extract(make([]byte, sha256.Size), deriveSalt(hs))
	for _, c := range []struct{ name, got, want string }{
		{"client early traffic", derive(early, "c e traffic", helloClient), "3272189698c3594d18f58efa3f12b638a249515099be7a2fa9836babe74f0111"},
		{"early exporter", derive(early, "e exp master", helloClient), "88e078f562cdc930219f6a5e98a1ce8c6e5f3dac5ac516459a96f2ef8f114c66"},
		{"client handshake traffic", derive(hs, "c hs traffic", helloClient, helloServer), "b32306c3ce9932c460a1fe6c0f060593974842036b96fa45049b7352e71c2ad2"},
		{"server handshake traffic", derive(hs, "s hs traffic", helloClient, helloServer), "22787f8ca269d34bc549ac8ba19f2040938a3aa370d7cc9d60f720882b88d01b"},
		{"client application traffic", derive(master, "c ap traffic", helloClient, helloServer, finishedServer), "47d7ea08397b5871154b0fe85584bcc30a87c69e84d69b56007c5b21f76493ba"},
		{"server application traffic", derive(master, "s ap traffic", helloClient, helloServer, finishedServer), "efbdb0c873c0480da57307083839a8984be25b9a8545e4fca029940fe2800565"},
		{"exporter", derive(master, "exp master", helloClient, helloServer, finishedServer), "8a43d787ee3804ead4a2a5b32972f9896b696295645d7222e1fd081ddd939834"},
		{"resumption", derive(master, "res master", helloClient, helloServer, finishedServer, finishedClient), "5f4c961329c91044011acbecb0b289282e0e3fed045cb3ea924dffe5fe654b3d"},
	} {
		if c.got != c.want {
			t.Errorf("%s secret = %s, want %s", c.name, c.got, c.want)
		}
	}
}

// TestAppendHkdfLabel pins the encoding's bytes (RFC 8446 §7.1) and
// that it appends: the handshake's key schedule reuses one buffer.
func TestAppendHkdfLabel(t *testing.T) {
	got := AppendHkdfLabel([]byte{0xaa}, 16, "key", []byte{1, 2})
	want := append([]byte{0xaa, 0, 16, 9}, "tls13 key\x02\x01\x02"...)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendHkdfLabel = %x, want %x", got, want)
	}
}

func TestExpandLabelStructure(t *testing.T) {
	secret := make([]byte, 32)
	expand := func(label string, context []byte, n int) []byte {
		b, err := ExpandLabel(secret, label, context, n)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := expand("key", nil, 16)
	if bytes.Equal(a, expand("iv", nil, 16)) {
		t.Fatal("different labels must derive different keys")
	}
	if bytes.Equal(a, expand("key", []byte("ctx"), 16)) {
		t.Fatal("different contexts must derive different keys")
	}
	if len(expand("key", nil, 7)) != 7 {
		t.Fatal("wrong output length")
	}
	if _, err := ExpandLabel(secret, "key", nil, 255*sha256.Size+1); err == nil {
		t.Fatal("ExpandLabel past 255 blocks must fail")
	}
}

func TestDeriveSecretDeterministic(t *testing.T) {
	s := []byte("master")
	derive := func(label string) []byte {
		b, err := DeriveSecret(s, label, []byte("transcript"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := derive("c hs traffic")
	if !bytes.Equal(a, derive("c hs traffic")) {
		t.Fatal("DeriveSecret not deterministic")
	}
	if bytes.Equal(a, derive("s hs traffic")) {
		t.Fatal("different labels must differ")
	}
	if len(a) != 32 {
		t.Fatalf("len = %d, want 32", len(a))
	}
}
