package kvstore

import (
	"bytes"
	"testing"
	"testing/quick"

	"smt/internal/cost"
)

func TestRequestRoundTrip(t *testing.T) {
	r := Request{Cmd: CmdSet, Key: 42, ScanLen: 7, Value: []byte("hello")}
	got, err := DecodeRequest(EncodeRequest(nil, r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmd != r.Cmd || got.Key != r.Key || got.ScanLen != r.ScanLen || !bytes.Equal(got.Value, r.Value) {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestRequestRoundTripProperty(t *testing.T) {
	f := func(cmd uint8, key uint64, sl uint16, val []byte) bool {
		if len(val) > 1<<16 {
			val = val[:1<<16]
		}
		r := Request{Cmd: cmd, Key: key, ScanLen: sl, Value: val}
		got, err := DecodeRequest(EncodeRequest(nil, r))
		return err == nil && got.Key == key && bytes.Equal(got.Value, val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeRequest(make([]byte, 4)); err == nil {
		t.Fatal("short request accepted")
	}
	b := EncodeRequest(nil, Request{Cmd: CmdSet, Value: []byte("abc")})
	if _, err := DecodeRequest(b[:len(b)-1]); err == nil {
		t.Fatal("truncated value accepted")
	}
}

func TestGetSetScan(t *testing.T) {
	s := New(cost.Default(), 100, 32)
	// Preloaded value readable.
	resp, cpu := s.Execute(nil, Request{Cmd: CmdGet, Key: 5})
	if resp[0] != 1 || len(resp) != 33 || cpu <= 0 {
		t.Fatalf("get: %d bytes, cpu %v", len(resp), cpu)
	}
	// Set then get back.
	s.Execute(nil, Request{Cmd: CmdSet, Key: 5, Value: []byte("new-value")})
	resp, _ = s.Execute(nil, Request{Cmd: CmdGet, Key: 5})
	if !bytes.Equal(resp[1:], []byte("new-value")) {
		t.Fatal("set not visible")
	}
	// Miss.
	resp, _ = s.Execute(nil, Request{Cmd: CmdGet, Key: 9999})
	if resp[0] != 0 || s.Misses != 1 {
		t.Fatal("miss not reported")
	}
	// Scan returns ~n values.
	resp, scanCPU := s.Execute(nil, Request{Cmd: CmdScan, Key: 0, ScanLen: 10})
	if len(resp) < 1+9*32 {
		t.Fatalf("scan too small: %d", len(resp))
	}
	if scanCPU <= cpu {
		t.Fatal("scan should cost more than get")
	}
	if s.Gets != 3 || s.Sets != 1 || s.Scans != 1 {
		t.Fatalf("stats: %+v", *s)
	}
}

func TestUnknownCmd(t *testing.T) {
	s := New(cost.Default(), 1, 8)
	resp, _ := s.Execute(nil, Request{Cmd: 99})
	if resp[0] != 0 {
		t.Fatal("unknown cmd should fail")
	}
}

// TestExecuteAppends: Execute appends its response behind dst's bytes,
// and a stored value aliases neither the SET request that wrote it
// (SET of the stored length copies in place) nor any response.
func TestExecuteAppends(t *testing.T) {
	s := New(cost.Default(), 4, 8)
	dst := []byte("header")
	resp, _ := s.Execute(dst, Request{Cmd: CmdGet, Key: 3})
	if string(resp[:len(dst)]) != "header" || !bytes.Equal(resp[len(dst):], []byte{1, 0, 0, 0, 0, 0, 0, 0, 3}) {
		t.Fatalf("get behind a header: %q", resp)
	}
	val := []byte("12345678")
	s.Execute(nil, Request{Cmd: CmdSet, Key: 3, Value: val})
	copy(val, "xxxxxxxx")
	resp, _ = s.Execute(nil, Request{Cmd: CmdGet, Key: 3})
	copy(resp[1:], "yyyyyyyy")
	if resp, _ = s.Execute(nil, Request{Cmd: CmdGet, Key: 3}); string(resp[1:]) != "12345678" {
		t.Fatalf("stored value aliases a request or a response: %q", resp[1:])
	}
	// A SET of another length replaces the value; its neighbours in the
	// preload slab keep theirs.
	s.Execute(nil, Request{Cmd: CmdSet, Key: 2, Value: []byte("a longer value")})
	resp, _ = s.Execute(nil, Request{Cmd: CmdScan, Key: 1, ScanLen: 3})
	want := append(append([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1}, "a longer value"...), "12345678"...)
	if !bytes.Equal(resp, want) {
		t.Fatalf("scan = %q, want %q", resp, want)
	}
}
