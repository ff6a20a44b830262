package smt_test

import (
	"bytes"
	"testing"

	"smt"
)

// TestFacadeEndToEnd exercises the public API exactly as README shows:
// world, sockets, paired sessions, encrypted echo.
func TestFacadeEndToEnd(t *testing.T) {
	world := smt.NewWorld(1)
	srv := smt.NewSocket(world.Server, smt.Config{
		Transport: smt.TransportConfig{Port: 443},
		HWOffload: true,
	})
	cli := smt.NewSocket(world.Client, smt.Config{HWOffload: true})
	if err := smt.PairSessions(cli, cli.Port(), srv, 443, 7); err != nil {
		t.Fatal(err)
	}
	srv.OnMessage(func(d smt.Delivery) {
		srv.Send(d.Src, d.SrcPort, d.Payload, d.AppThread)
	})
	var got []byte
	cli.OnMessage(func(d smt.Delivery) { got = append([]byte(nil), d.Payload...) })
	msg := bytes.Repeat([]byte("facade"), 100)
	world.Eng.At(0, func() { cli.Send(world.Server.Addr, 443, msg, 0) })
	world.Eng.Run()
	if !bytes.Equal(got, msg) {
		t.Fatal("echo mismatch through the facade")
	}
	if !smt.DefaultAllocation.Valid() {
		t.Fatal("default allocation invalid")
	}
}
