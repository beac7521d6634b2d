// Command mpicollvet runs the repository's domain-specific static-analysis
// suite (internal/lint) over Go package patterns and reports findings.
//
// Usage:
//
//	go run ./cmd/mpicollvet ./...                     # text report, exit 1 on findings
//	go run ./cmd/mpicollvet -json ./...               # machine-readable report
//	go run ./cmd/mpicollvet -list                     # describe the analyzers
//	go run ./cmd/mpicollvet -sarif out.sarif ./...    # SARIF 2.1.0 for code scanning
//	GOMAXPROCS=4 go run ./cmd/mpicollvet -benchout BENCH_lint.json ./...
//
// The analyzers enforce the pipeline's determinism, numeric-safety,
// metrics-hygiene, and concurrency-contract invariants. The per-file checks
// are backed by an interprocedural call graph with blocking/nondeterminism
// effect propagation; see DESIGN.md §8 for the catalogue, the effect
// lattice, and the suppression-comment syntax. Packages load and analyze on
// GOMAXPROCS workers, and the output is byte-identical at any GOMAXPROCS.
package main

import (
	"os"

	"mpicollpred/internal/lint"
)

func main() {
	os.Exit(lint.CLIMain(os.Args[1:], os.Stdout, os.Stderr))
}
