package handshake

import (
	"bytes"
	"crypto/ecdh"
	"fmt"
	"io"

	"smt/internal/core"
	"smt/internal/cpusim"
	"smt/internal/hkdfx"
	"smt/internal/sim"
)

// Wire sizes of the two handshake flights, used when an exchange runs
// over a packet conduit (the experiments' dialed connections). CHLO
// carries the client random, share and extensions; the full SHLO adds
// the certificate chain and CertVerify, while the 0-RTT/resumption
// SHLO is certificate-free.
const (
	FlightCHLO      = 320
	FlightSHLOCert  = 2368
	FlightSHLOShort = 192
)

// Conduit carries handshake flights between the two endpoints of an
// exchange. deliver must run as an engine event once the flight has
// fully arrived. Exchange uses a fixed one-way latency; the
// experiments' dial path sends flights as real wire.TypeHandshake
// packets through the simulated fabric, so flights pay serialization,
// queueing and softirq like any other traffic.
type Conduit interface {
	// ToServer carries a size-byte client flight to the server.
	ToServer(size int, deliver func())
	// ToClient carries a size-byte server flight to the client.
	ToClient(size int, deliver func())
}

// latencyConduit models each flight as one small-packet one-way
// latency, independent of size — the Fig. 12 microbenchmark setting.
type latencyConduit struct {
	eng    *sim.Engine
	oneWay sim.Time
}

func (c latencyConduit) ToServer(_ int, deliver func()) { c.eng.After(c.oneWay, deliver) }
func (c latencyConduit) ToClient(_ int, deliver func()) { c.eng.After(c.oneWay, deliver) }

// Options tune a simulated exchange (§4.5.1 optimizations).
type Options struct {
	Mode Mode
	// PreGeneratedKeys removes S2.1/C1.1 (standby key pairs).
	PreGeneratedKeys bool
	// ShortChain applies the §4.5.1 short-certificate-chain speedup to
	// C3.2. Only Init1RTT verifies a certificate chain, so every other
	// mode charges no C3.2 and is unaffected by it.
	ShortChain bool

	// ServerID is the server's long-term identity. nil generates a
	// throwaway identity from the engine RNG (the microbenchmark
	// setting); dialed connections pass the identity the dcdns
	// resolver advertises so every exchange against one server derives
	// from the same long-term share.
	ServerID *Identity
	// Ticket supplies the client's out-of-band SMT-ticket for the
	// 0-RTT modes. Its ServerDH share must match ServerID.
	Ticket *Ticket
	// PriorSecret is the prior session's resumption master secret
	// (Result.Master) for Rsmp/RsmpFS. nil draws a fresh random PSK —
	// either way each resumed connection gets unique keys.
	PriorSecret []byte

	// CliThread/SrvThread pick the app thread the Table 2 costs are
	// charged on at each host (default 0). Connection churn spreads
	// concurrent handshakes across threads like a real accept loop.
	CliThread int
	SrvThread int
}

// Result reports a completed simulated exchange.
type Result struct {
	// Done is the virtual time at which both sides hold keys and the
	// client finished its last compute step (Fig. 12's y-axis start).
	Done sim.Time
	// Err is non-nil if the exchange failed after Exchange returned
	// (crypto failure mid-flight); the key fields are then empty.
	Err error
	// Client/Server are the derived session keys.
	Client core.SessionKeys
	Server core.SessionKeys
	// Master is the resumption master secret: feed it back as
	// Options.PriorSecret to resume this session later.
	Master []byte
	// CliCPU/SrvCPU are the Table 2 CPU totals charged at each host.
	CliCPU sim.Time
	SrvCPU sim.Time
}

// opCost returns the charged duration for op under opts.
func opCost(op Op, opts Options) sim.Time {
	c := OpCosts[op]
	switch op {
	case C3p2VerifyCert:
		if opts.ShortChain {
			c = sim.Time(float64(c) * (1 - ShortChainSpeedup))
		}
	case S2p1KeyGen, C1p1KeyGen:
		if opts.PreGeneratedKeys {
			c = 0
		}
	}
	return c
}

// secretKind says how a variant forms the exchange's shared secret
// from the material ExchangeOver drew.
type secretKind int

const (
	secretEph    secretKind = iota // ECDH of the two ephemeral shares
	secretTicket                   // ECDH against the ticket's long-term share: the SMT-key
	secretPSK                      // the per-connection resumption PSK
	secretPSKEph                   // the PSK, then an ephemeral ECDH (psk_dhe_ke)
)

// variant is one Fig. 12 key exchange in the shape §4.5 and Table 2 give
// every variant: client operations, the CHLO, server operations, one
// server flight, then client operations.
type variant struct {
	cliOps     []Op // client, before the CHLO
	srvOps     []Op // server, on the CHLO
	finOps     []Op // client, on the server flight
	flight     int  // the server flight's size
	transcript string
	secret     secretKind
}

// variants holds the five Fig. 12 modes. In every mode keys are usable
// at the client once it has processed the server flight: Fig. 12 counts
// completion there (the client's Finished can accompany first data).
var variants = [...]variant{
	// The standard TLS 1.3 handshake: the server flight carries the
	// certificate chain and CertVerify, which the client verifies.
	Init1RTT: {
		cliOps: []Op{C1p1KeyGen, C1p2OthersGen},
		srvOps: []Op{S1ProcessCHLO, S2p1KeyGen, S2p2ECDH, S2p3SHLOGen, S2p4EECertEncode, S2p5CertVerifyGen, S2p6SecretDerive},
		finOps: []Op{C2p1ProcessSHLO, C2p2ECDH, C2p3SecretDerive, C3p1DecodeCert, C3p2VerifyCert, C4p1BuildSignData, C4p2VerifyCertVerify, C5ProcessFinished},
		flight: FlightSHLOCert, transcript: "init-1rtt", secret: secretEph,
	},
	// The SMT-ticket (server long-term share + cert) came from DNS ahead
	// of time, already verified (no C1.1, C3.1, C3.2; S2.1 pre-generated)
	// — §4.5.2. The CHLO carries 0-RTT data under the SMT-key. The server
	// derives it too (ECDH plus the extra application key derivation)
	// and finishes. It keeps no replay state: nothing records the CHLO
	// random, so a replayed CHLO goes undetected, where §4.5.3 has the
	// server reject one within the ticket's lifetime.
	Init0RTT: {
		cliOps: []Op{C1p2OthersGen, C2p2ECDH, C2p3SecretDerive},
		srvOps: []Op{S1ProcessCHLO, S2p2ECDH, S2p3SHLOGen, S2p6SecretDerive, S2p6SecretDerive, S3ProcessFinished},
		finOps: []Op{C2p1ProcessSHLO, C2p3SecretDerive, C5ProcessFinished},
		flight: FlightSHLOShort, transcript: "smt-ticket", secret: secretTicket,
	},
	// Forward secrecy: as Init0RTT, but the server also replies with an
	// ephemeral share and both sides switch to the fs-key (extra
	// S2.2-class and C2.2-class exchanges).
	Init0RTTFS: {
		cliOps: []Op{C1p2OthersGen, C2p2ECDH, C2p3SecretDerive},
		srvOps: []Op{S1ProcessCHLO, S2p2ECDH, S2p6SecretDerive, S2p2ECDH, S2p3SHLOGen},
		finOps: []Op{C2p1ProcessSHLO, C2p2ECDH, C2p3SecretDerive},
		flight: FlightSHLOShort, transcript: "smt-ticket-fs", secret: secretEph,
	},
	// PSK resumption: no certificate processing; keys pre-generated at
	// both ends (§5.6).
	Rsmp: {
		cliOps: []Op{C1p2OthersGen},
		srvOps: []Op{S1ProcessCHLO, S2p3SHLOGen, S2p6SecretDerive},
		finOps: []Op{C2p1ProcessSHLO, C2p3SecretDerive, C5ProcessFinished},
		flight: FlightSHLOShort, transcript: "resumption", secret: secretPSK,
	},
	// Resumption with a fresh ECDHE (psk_dhe_ke): the S2.2 + C2.2 pair,
	// ≈354 µs — the margin the paper reports.
	RsmpFS: {
		cliOps: []Op{C1p2OthersGen},
		srvOps: []Op{S1ProcessCHLO, S2p3SHLOGen, S2p6SecretDerive, S2p2ECDH},
		finOps: []Op{C2p1ProcessSHLO, C2p3SecretDerive, C5ProcessFinished, C2p2ECDH},
		flight: FlightSHLOShort, transcript: "resumption", secret: secretPSKEph,
	},
}

// Exchange runs the selected key-exchange variant between client and
// server hosts in virtual time, performing the real ECDH/HKDF crypto
// and charging Table 2 costs on the hosts' app cores. done receives
// the result when the client holds verified keys (after its last
// compute step plus the needed network flights). Errors in synchronous
// setup (key generation, a ticket/identity mismatch) are returned;
// failures mid-exchange arrive as Result.Err.
//
// The message flights ride the transport's handshake packets in
// spirit; for timing each flight is one small-packet one-way latency
// (oneWay), which the caller measures for its configuration. Dialed
// connections use ExchangeOver with a packet conduit instead.
func Exchange(cliHost, srvHost *cpusim.Host, oneWay sim.Time, opts Options, done func(Result)) error {
	return ExchangeOver(latencyConduit{eng: cliHost.Eng, oneWay: oneWay}, cliHost, srvHost, opts, done)
}

// ExchangeOver is Exchange with the flights carried by an explicit
// Conduit. All key material is drawn from the client host's engine RNG,
// so a given (seed, call sequence) reproduces the same keys — the
// serial-vs-parallel determinism contract every artifact obeys.
func ExchangeOver(conduit Conduit, cliHost, srvHost *cpusim.Host, opts Options, done func(Result)) error {
	if opts.Mode < 0 || int(opts.Mode) >= len(variants) {
		return fmt.Errorf("handshake: unknown mode %d", opts.Mode)
	}
	v := &variants[opts.Mode]
	eng := cliHost.Eng
	rng := eng.Rand()

	// Draw all key material up front: ephemeral scalars for each side,
	// the server identity when the caller didn't pin one, and the
	// per-connection resumption PSK. Every mode draws both scalars, so
	// the RNG stream is the same whatever the variant uses.
	cliScalar, err := DrawScalar(rng)
	if err != nil {
		return fmt.Errorf("handshake: client ephemeral: %w", err)
	}
	srvScalar, err := DrawScalar(rng)
	if err != nil {
		return fmt.Errorf("handshake: server ephemeral: %w", err)
	}
	srvID := opts.ServerID
	if srvID == nil {
		if srvID, err = NewIdentityRand(rng); err != nil {
			return err
		}
	}
	if opts.Ticket != nil && !bytes.Equal(opts.Ticket.ServerDH, srvID.LongDH.PublicKey().Bytes()) {
		return fmt.Errorf("handshake: ticket share does not match server identity")
	}
	var psk []byte
	if v.secret == secretPSK || v.secret == secretPSKEph {
		nonce := make([]byte, 16)
		if _, err := io.ReadFull(rng, nonce); err != nil {
			return fmt.Errorf("handshake: resumption nonce: %w", err)
		}
		if opts.PriorSecret != nil {
			// Per-connection PSK: the prior session's master secret
			// expanded with a fresh nonce, so no two resumed
			// connections ever share keys (the audit's cross-flow
			// keystream-uniqueness invariant watches for this).
			if psk, err = hkdfx.ExpandLabel(opts.PriorSecret, "resumption", nonce, 32); err != nil {
				return fmt.Errorf("handshake: resumption psk: %w", err)
			}
		} else {
			psk = make([]byte, 32)
			if _, err := io.ReadFull(rng, psk); err != nil {
				return fmt.Errorf("handshake: resumption psk: %w", err)
			}
		}
	}
	// Build only the ephemeral key pairs the variant's secret uses: each
	// costs a ScalarBaseMult. The ECDH needs the client's private key
	// and the server's public share (or the ticket's long-term share).
	var cliEph, srvEph *ecdh.PrivateKey
	if v.secret != secretPSK {
		if cliEph, err = ecdh.P256().NewPrivateKey(cliScalar); err != nil {
			return fmt.Errorf("handshake: client ephemeral: %w", err)
		}
	}
	if v.secret == secretEph || v.secret == secretPSKEph {
		if srvEph, err = ecdh.P256().NewPrivateKey(srvScalar); err != nil {
			return fmt.Errorf("handshake: server ephemeral: %w", err)
		}
	}

	var cliCPU, srvCPU sim.Time
	// The chain's closures capture the threads, not opts: each closure
	// would carry its own copy of opts.
	cliThread, srvThread := opts.CliThread, opts.SrvThread
	charge := func(host *cpusim.Host, thread int, cpu *sim.Time, ops []Op, fn func()) {
		var total sim.Time
		for _, op := range ops {
			total += opCost(op, opts)
		}
		*cpu += total
		host.RunApp(thread, total, fn)
	}
	finish := func() {
		res := Result{Done: eng.Now(), CliCPU: cliCPU, SrvCPU: srvCPU}
		var secret []byte
		var err error
		switch v.secret {
		case secretEph:
			secret, err = cliEph.ECDH(srvEph.PublicKey())
		case secretTicket:
			secret, err = cliEph.ECDH(srvID.LongDH.PublicKey())
		case secretPSK:
			secret = psk
		case secretPSKEph:
			secret, err = cliEph.ECDH(srvEph.PublicKey())
			secret = append(psk, secret...)
		}
		if err != nil {
			res.Err = fmt.Errorf("handshake: %s ecdh: %w", v.transcript, err)
		} else {
			res.Client, res.Server, res.Master = keySchedule(secret, []byte(v.transcript))
		}
		done(res)
	}

	charge(cliHost, cliThread, &cliCPU, v.cliOps, func() {
		conduit.ToServer(FlightCHLO, func() {
			charge(srvHost, srvThread, &srvCPU, v.srvOps, func() {
				conduit.ToClient(v.flight, func() {
					charge(cliHost, cliThread, &cliCPU, v.finOps, finish)
				})
			})
		})
	})
	return nil
}
