package lint

// KeyFlowAnalyzer is the static key-lifecycle hygiene check ahead of
// rekey-under-traffic: key material must never appear in an error
// string, a JSON artifact, or a plaintext wire payload. The taint
// sources are the places secrets are minted or stored —
// tlsrec.Keys values (core.SessionKeys and ktls.Keys are aliases of
// it), the handshake's master/resumption secrets
// (Result.Master, Options.PriorSecret), the outputs of its key
// schedule and its drawn P-256 scalars (handshake.DrawScalar), and
// every HKDF output (crypto/hkdf's and hkdfx's). Taint propagates through assignments, slicing,
// conversions, append/copy, and interprocedurally through first-party
// calls via per-function summaries (see summary.go); calls into the
// standard library cut it — AEAD ciphertext and MAC outputs are by
// design not key material, so sealing with a key does not taint the
// sealed record.
//
// Sinks: fmt.* and errors.New (error/log strings), encoding/json
// marshalling (artifact JSON), and wire-payload writes (SetPayload /
// CopyFrom, direct Payload assignment, copy into a packet's Payload).
// A parameter that reaches a sink inside a callee flags the call site
// that passes a secret into it.
var KeyFlowAnalyzer = &Analyzer{
	Name: "keyflow",
	Doc:  "key material (SessionKeys, handshake secrets, HKDF outputs) must not flow into error strings, artifact JSON, or plaintext wire writes",
	Run:  runKeyFlow,
}

func runKeyFlow(pass *Pass) {
	g := pass.Pkg.prog.CallGraph(fixtureExtra(pass.Pkg))
	_, hits := g.KeyflowFacts()
	for _, h := range hits {
		if h.pkg == pass.Pkg.Path {
			pass.Report(h.pos, "%s", h.msg)
		}
	}
}
