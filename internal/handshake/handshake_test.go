package handshake

import (
	"bytes"
	"testing"

	"smt/internal/cost"
	"smt/internal/cpusim"
	"smt/internal/netsim"
	"smt/internal/sim"
)

func hosts(t *testing.T) (*sim.Engine, *cpusim.Host, *cpusim.Host) {
	t.Helper()
	eng := sim.NewEngine(1)
	cm := cost.Default()
	net := netsim.New(eng, cm)
	return eng, cpusim.NewHost(eng, cm, net, 1, 4, 12), cpusim.NewHost(eng, cm, net, 2, 4, 12)
}

func runMode(t *testing.T, mode Mode, opts Options) Result {
	t.Helper()
	eng, cli, srv := hosts(t)
	opts.Mode = mode
	var res Result
	got := false
	eng.At(0, func() {
		err := Exchange(cli, srv, 2*sim.Microsecond, opts, func(r Result) { res = r; got = true })
		if err != nil {
			t.Errorf("mode %v: %v", mode, err)
		}
	})
	eng.RunUntil(100 * sim.Millisecond)
	if !got {
		t.Fatalf("mode %v: exchange never completed", mode)
	}
	if res.Err != nil {
		t.Fatalf("mode %v: %v", mode, res.Err)
	}
	return res
}

func TestAllModesDeriveMirroredKeys(t *testing.T) {
	for _, m := range []Mode{Init1RTT, Init0RTT, Init0RTTFS, Rsmp, RsmpFS} {
		res := runMode(t, m, Options{PreGeneratedKeys: true, ShortChain: true})
		if !bytes.Equal(res.Client.TxKey, res.Server.RxKey) ||
			!bytes.Equal(res.Client.RxKey, res.Server.TxKey) ||
			!bytes.Equal(res.Client.TxIV, res.Server.RxIV) {
			t.Fatalf("mode %v: keys not mirrored", m)
		}
		if len(res.Client.TxKey) != 16 {
			t.Fatalf("mode %v: bad key length", m)
		}
	}
}

func TestKeysDifferAcrossModes(t *testing.T) {
	a := runMode(t, Init0RTT, Options{PreGeneratedKeys: true})
	b := runMode(t, Init0RTTFS, Options{PreGeneratedKeys: true})
	if bytes.Equal(a.Client.TxKey, b.Client.TxKey) {
		t.Fatal("independent exchanges must derive independent keys")
	}
}

// TestExchangeDeterministic: all key material flows from the engine
// RNG, so two worlds with the same seed derive identical keys — the
// property the serial-vs-parallel artifact determinism battery relies
// on — and a different seed diverges.
func TestExchangeDeterministic(t *testing.T) {
	for _, mode := range []Mode{Init1RTT, Init0RTT, Rsmp} {
		a := runMode(t, mode, Options{})
		b := runMode(t, mode, Options{})
		if !bytes.Equal(a.Client.TxKey, b.Client.TxKey) || !bytes.Equal(a.Master, b.Master) {
			t.Fatalf("mode %v: same seed produced different keys", mode)
		}
	}
	eng := sim.NewEngine(7)
	cm := cost.Default()
	net := netsim.New(eng, cm)
	cli := cpusim.NewHost(eng, cm, net, 1, 4, 12)
	srv := cpusim.NewHost(eng, cm, net, 2, 4, 12)
	var other Result
	eng.At(0, func() {
		if err := Exchange(cli, srv, 2*sim.Microsecond, Options{Mode: Init1RTT}, func(r Result) { other = r }); err != nil {
			t.Error(err)
		}
	})
	eng.RunUntil(100 * sim.Millisecond)
	same := runMode(t, Init1RTT, Options{})
	if bytes.Equal(other.Client.TxKey, same.Client.TxKey) {
		t.Fatal("different seeds produced identical keys")
	}
}

// TestResumptionPerConnectionKeys: two resumptions of the same prior
// session (same PriorSecret) must not share session keys — the bug the
// audit's cross-flow keystream-uniqueness invariant would flag once
// resumption feeds live traffic.
func TestResumptionPerConnectionKeys(t *testing.T) {
	eng, cli, srv := hosts(t)
	prior := runMode(t, Init1RTT, Options{}).Master
	if len(prior) == 0 {
		t.Fatal("no resumption master secret from 1-RTT exchange")
	}
	var first, second Result
	eng.At(0, func() {
		opts := Options{Mode: Rsmp, PreGeneratedKeys: true, PriorSecret: prior}
		if err := Exchange(cli, srv, 2*sim.Microsecond, opts, func(r Result) { first = r }); err != nil {
			t.Error(err)
		}
	})
	eng.RunUntil(20 * sim.Millisecond)
	eng.At(eng.Now(), func() {
		opts := Options{Mode: Rsmp, PreGeneratedKeys: true, PriorSecret: prior}
		if err := Exchange(cli, srv, 2*sim.Microsecond, opts, func(r Result) { second = r }); err != nil {
			t.Error(err)
		}
	})
	eng.RunUntil(40 * sim.Millisecond)
	if len(first.Client.TxKey) == 0 || len(second.Client.TxKey) == 0 {
		t.Fatal("resumption exchange did not complete")
	}
	if bytes.Equal(first.Client.TxKey, second.Client.TxKey) {
		t.Fatal("two resumed connections share session keys")
	}
}

// TestTicketIdentityMismatch: a ticket naming a different server share
// than the pinned identity must fail synchronously.
func TestTicketIdentityMismatch(t *testing.T) {
	eng, cli, srv := hosts(t)
	idA, err := NewIdentityRand(eng.Rand())
	if err != nil {
		t.Fatal(err)
	}
	idB, err := NewIdentityRand(eng.Rand())
	if err != nil {
		t.Fatal(err)
	}
	tk, err := NewTicket(idB, eng.Now()+sim.Time(3600)*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Mode: Init0RTT, PreGeneratedKeys: true, ServerID: idA, Ticket: tk}
	if err := Exchange(cli, srv, 2*sim.Microsecond, opts, func(Result) {}); err == nil {
		t.Fatal("mismatched ticket accepted")
	}
}

// TestIdentityRandSigning: a deterministically constructed identity
// must produce verifiable ECDSA signatures (the ticket path).
func TestIdentityRandSigning(t *testing.T) {
	eng := sim.NewEngine(3)
	id, err := NewIdentityRand(eng.Rand())
	if err != nil {
		t.Fatal(err)
	}
	tk, err := NewTicket(id, sim.Time(3600)*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Verify(&id.SigKey.PublicKey, 0); err != nil {
		t.Fatal(err)
	}
}

// §5.6 shapes: 0-RTT init beats 1-RTT by 52–55 % (no FS) and 37–44 %
// (FS); Rsmp-FS − Rsmp ≈ 338–387 µs (the S2.2+C2.2 pair).
func TestFig12Shapes(t *testing.T) {
	base := runMode(t, Init1RTT, Options{}).Done
	init := runMode(t, Init0RTT, Options{PreGeneratedKeys: true, ShortChain: true}).Done
	initFS := runMode(t, Init0RTTFS, Options{PreGeneratedKeys: true, ShortChain: true}).Done
	rsmp := runMode(t, Rsmp, Options{PreGeneratedKeys: true}).Done
	rsmpFS := runMode(t, RsmpFS, Options{PreGeneratedKeys: true}).Done

	t.Logf("Init-1RTT=%v Init=%v Init-FS=%v Rsmp=%v Rsmp-FS=%v", base, init, initFS, rsmp, rsmpFS)

	if g := 1 - float64(init)/float64(base); g < 0.48 || g > 0.60 {
		t.Errorf("Init vs 1RTT gain %.1f%% outside 52–55%% band", g*100)
	}
	if g := 1 - float64(initFS)/float64(base); g < 0.33 || g > 0.48 {
		t.Errorf("Init-FS vs 1RTT gain %.1f%% outside 37–44%% band", g*100)
	}
	margin := (rsmpFS - rsmp).Micros()
	if margin < 330 || margin > 395 {
		t.Errorf("Rsmp-FS − Rsmp = %.0fµs outside 338–387µs band", margin)
	}
	if initFS <= init {
		t.Error("forward secrecy must cost something")
	}
}

// TestPerSideCPU pins each mode's Table 2 CPU at the client and at the
// server separately. Fig. 12 and churn's handshake CPU share see only
// sums, so an operation moved between a client row and a server row
// would pass both.
func TestPerSideCPU(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		want [5][2]sim.Time // CliCPU, SrvCPU per mode, in Mode order
	}{
		{"default", Options{}, [5][2]sim.Time{
			{930_700, 609_700}, {237_000, 483_600}, {283_100, 655_600}, {99_500, 125_600}, {188_200, 390_600},
		}},
		{"pregen+short-chain", Options{PreGeneratedKeys: true, ShortChain: true}, [5][2]sim.Time{
			{618_032, 541_800}, {237_000, 483_600}, {283_100, 655_600}, {99_500, 125_600}, {188_200, 390_600},
		}},
	} {
		for m, want := range tc.want {
			res := runMode(t, Mode(m), tc.opts)
			if got := [2]sim.Time{res.CliCPU, res.SrvCPU}; got != want {
				t.Errorf("%s %v: CliCPU, SrvCPU = %d, %d ns; want %d, %d ns", tc.name, Mode(m), got[0], got[1], want[0], want[1])
			}
		}
	}
}

func TestRSAVariantSlowerServer(t *testing.T) {
	ec := runMode(t, Init1RTT, Options{}).Done
	rsa := runMode(t, Init1RTT, Options{RSA: true}).Done
	if rsa <= ec {
		t.Fatal("RSA-2048 handshake must be slower than ECDSA-256 (S2.5 dominates)")
	}
}

func TestShortChainFaster(t *testing.T) {
	full := runMode(t, Init1RTT, Options{}).Done
	short := runMode(t, Init1RTT, Options{ShortChain: true}).Done
	want := sim.Time(float64(OpCosts[C3p2VerifyCert]) * ShortChainSpeedup)
	got := full - short
	if got < want-sim.Microsecond || got > want+sim.Microsecond {
		t.Fatalf("short chain saves %v, want ≈%v", got, want)
	}
}

func TestTicketVerify(t *testing.T) {
	eng := sim.NewEngine(1)
	id, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	tk, err := NewTicket(id, eng.Now()+sim.Time(3600)*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Verify(&id.SigKey.PublicKey, eng.Now()); err != nil {
		t.Fatal(err)
	}
	// Expired ticket rejected.
	if err := tk.Verify(&id.SigKey.PublicKey, tk.Expiry+1); err == nil {
		t.Fatal("expired ticket accepted")
	}
	// Tampered share rejected.
	tk.ServerDH[0] ^= 1
	if err := tk.Verify(&id.SigKey.PublicKey, eng.Now()); err == nil {
		t.Fatal("tampered ticket accepted")
	}
}

func TestMeasureTable2(t *testing.T) {
	rows := MeasureTable2()
	if len(rows) != int(numOps) {
		t.Fatalf("rows = %d, want %d", len(rows), int(numOps))
	}
	byOp := map[Op]Table2Row{}
	for _, r := range rows {
		if r.Name == "" || r.PaperUs <= 0 {
			t.Fatalf("bad row %+v", r)
		}
		byOp[r.Op] = r
	}
	// Shape: RSA sign ≫ ECDSA sign; RSA verify < ECDSA verify — the
	// asymmetry Table 2 demonstrates — must hold for measured values too.
	s25 := byOp[S2p5CertVerifyGen]
	c42 := byOp[C4p2VerifyCertVerify]
	if s25.MeasRSAUs <= s25.MeasuredUs {
		t.Errorf("RSA sign (%.1fµs) should exceed ECDSA sign (%.1fµs)", s25.MeasRSAUs, s25.MeasuredUs)
	}
	if c42.MeasRSAUs >= c42.MeasuredUs {
		t.Errorf("RSA verify (%.1fµs) should undercut ECDSA verify (%.1fµs)", c42.MeasRSAUs, c42.MeasuredUs)
	}
}

func TestOpNames(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		if op.Name() == "" {
			t.Fatalf("op %d unnamed", op)
		}
	}
	for _, m := range []Mode{Init1RTT, Init0RTT, Init0RTTFS, Rsmp, RsmpFS, Mode(99)} {
		if m.String() == "" {
			t.Fatal("unnamed mode")
		}
	}
}
