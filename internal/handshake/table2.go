package handshake

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/hkdf"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"slices"
	"time"

	"smt/internal/hkdfx"
)

// Table2Row pairs a Table 2 operation with the paper's measurement and a
// wall-clock measurement of the equivalent Go stdlib crypto on this
// machine. The absolute values differ (picotls/OpenSSL vs Go, different
// CPUs); the structure — which steps dominate, ECDSA-vs-RSA asymmetry —
// is the reproduced shape.
type Table2Row struct {
	Op         Op
	Name       string
	PaperUs    float64
	PaperRSAUs float64 // only for the two signature rows; 0 otherwise
	MeasuredUs float64
	MeasRSAUs  float64
}

// table2Batches is how many timed batches each measured row takes.
const table2Batches = 5

// timed is one measured operation: iters calls of fn make a batch.
type timed struct {
	iters int
	fn    func()
}

// timeBatches runs table2Batches rounds of one batch of each op in
// turn and returns each op's median batch mean in microseconds, as
// bench/'s ladder does: a batch that another process preempted moves
// the median by one rank, not by its delay. Interleaving the ops puts
// host contention on all of them alike, so the comparisons Table 2
// makes between rows (RSA against ECDSA) hold under load.
func timeBatches(ops ...timed) []float64 {
	us := make([][table2Batches]float64, len(ops))
	for b := range table2Batches {
		for i, op := range ops {
			//smt:allow determinism -- Table 2 is a real-crypto wall-clock microbenchmark, excluded from the determinism battery
			start := time.Now()
			for range op.iters {
				op.fn()
			}
			//smt:allow determinism -- Table 2 is a real-crypto wall-clock microbenchmark, excluded from the determinism battery
			us[i][b] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(op.iters)
		}
	}
	med := make([]float64, len(ops))
	for i := range us {
		slices.Sort(us[i][:])
		med[i] = us[i][table2Batches/2]
	}
	return med
}

// MeasureTable2 reproduces Table 2: per-operation handshake costs, run
// with real crypto on the current machine.
func MeasureTable2() []Table2Row {
	const iters = 50
	curve := ecdh.P256()
	// The timed operations below run real crypto with real entropy: only
	// the *durations* feed the table, never the key or signature bytes.
	//smt:allow determinism -- real-entropy keys for a wall-clock microbenchmark; bytes never reach artifacts
	cliKey, _ := curve.GenerateKey(rand.Reader)
	//smt:allow determinism -- real-entropy keys for a wall-clock microbenchmark; bytes never reach artifacts
	srvKey, _ := curve.GenerateKey(rand.Reader)
	//smt:allow determinism -- real-entropy keys for a wall-clock microbenchmark; bytes never reach artifacts
	sigKey, _ := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	//smt:allow determinism -- real-entropy keys for a wall-clock microbenchmark; bytes never reach artifacts
	rsaKey, _ := rsa.GenerateKey(rand.Reader, 2048)
	digest := sha256.Sum256([]byte("certificate-verify-transcript"))
	//smt:allow determinism -- real-entropy signature for a wall-clock microbenchmark; bytes never reach artifacts
	ecSig, _ := ecdsa.SignASN1(rand.Reader, sigKey, digest[:])
	//smt:allow determinism -- real-entropy signature for a wall-clock microbenchmark; bytes never reach artifacts
	rsaSig, _ := rsa.SignPKCS1v15(rand.Reader, rsaKey, 0, digest[:])

	m := timeBatches(
		//smt:allow determinism -- timed real-crypto operation; only its duration is recorded
		timed{iters, func() { _, _ = curve.GenerateKey(rand.Reader) }},
		timed{iters, func() { _, _ = cliKey.ECDH(srvKey.PublicKey()) }},
		timed{iters, func() {
			prk, _ := hkdf.Extract(sha256.New, digest[:], nil)
			_, _ = hkdfx.DeriveSecret(prk, "c hs traffic", digest[:])
			_, _ = hkdfx.DeriveSecret(prk, "s hs traffic", digest[:])
		}},
		//smt:allow determinism -- timed real-crypto operation; only its duration is recorded
		timed{iters, func() { _, _ = ecdsa.SignASN1(rand.Reader, sigKey, digest[:]) }},
		//smt:allow determinism -- timed real-crypto operation; only its duration is recorded
		timed{10, func() { _, _ = rsa.SignPKCS1v15(rand.Reader, rsaKey, 0, digest[:]) }},
		timed{iters, func() { _ = ecdsa.VerifyASN1(&sigKey.PublicKey, digest[:], ecSig) }},
		timed{iters, func() { _ = rsa.VerifyPKCS1v15(&rsaKey.PublicKey, 0, digest[:], rsaSig) }},
		timed{iters, func() { _ = sha256.Sum256(digest[:]) }},
	)
	keyGen, dh, derive, ecSign, rsaSign, ecVerify, rsaVerify, hashSmall := m[0], m[1], m[2], m[3], m[4], m[5], m[6], m[7]
	// Certificate chain verify ≈ 2 signature verifications + parsing.
	certVerify := 2*ecVerify + hashSmall

	rows := make([]Table2Row, 0, numOps)
	add := func(op Op, measured, measuredRSA float64) {
		r := Table2Row{
			Op: op, Name: op.Name(),
			PaperUs:    float64(OpCosts[op]) / 1e3,
			MeasuredUs: measured,
			MeasRSAUs:  measuredRSA,
		}
		switch op {
		case S2p5CertVerifyGen:
			r.PaperRSAUs = float64(RSACertVerifyGen) / 1e3
		case C4p2VerifyCertVerify:
			r.PaperRSAUs = float64(RSAVerifyCertVerify) / 1e3
		}
		rows = append(rows, r)
	}
	add(S1ProcessCHLO, hashSmall, 0)
	add(S2p1KeyGen, keyGen, 0)
	add(S2p2ECDH, dh, 0)
	add(S2p3SHLOGen, hashSmall+derive/4, 0)
	add(S2p4EECertEncode, hashSmall, 0)
	add(S2p5CertVerifyGen, ecSign, rsaSign)
	add(S2p6SecretDerive, derive, 0)
	add(S3ProcessFinished, derive/2, 0)
	add(C1p1KeyGen, keyGen, 0)
	add(C1p2OthersGen, hashSmall, 0)
	add(C2p1ProcessSHLO, hashSmall, 0)
	add(C2p2ECDH, dh, 0)
	add(C2p3SecretDerive, derive, 0)
	add(C3p1DecodeCert, hashSmall, 0)
	add(C3p2VerifyCert, certVerify, 0)
	add(C4p1BuildSignData, hashSmall, 0)
	add(C4p2VerifyCertVerify, ecVerify, rsaVerify)
	add(C5ProcessFinished, derive/2, 0)
	return rows
}
