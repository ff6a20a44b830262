// kvcache runs the paper's §5.3 scenario end to end: a single-threaded
// Redis-like key-value server behind SMT with hardware TLS offload,
// driven by a YCSB-B workload, compared against the same server behind
// kTLS over TCP. It prints the throughput of both — the Figure 8 story
// in miniature.
package main

import (
	"fmt"
	"os"

	"smt/internal/experiments"
	"smt/internal/ycsb"
)

func main() {
	const (
		valueSize = 1024
		clients   = 64
	)
	fmt.Printf("YCSB-B, %d B values, %d closed-loop clients:\n\n", valueSize, clients)
	for _, spec := range experiments.RedisLineup() {
		sys, err := experiments.BuildRedis(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kvcache:", err)
			os.Exit(1)
		}
		r, err := experiments.MeasureRedis(sys, ycsb.WorkloadB, valueSize, clients, 2024)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kvcache:", err)
			os.Exit(1)
		}
		fmt.Printf("  %-8s %8.0f ops/s\n", r.System, r.OpsPerSec)
	}
	fmt.Println("\nSMT outperforms the TLS-over-TCP variants because the server's")
	fmt.Println("single thread parses requests, touches the database and encrypts")
	fmt.Println("responses — cycles the message transport (and NIC offload) frees.")
}
