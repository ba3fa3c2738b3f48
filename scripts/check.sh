#!/usr/bin/env bash
# Full verification gauntlet, beyond tier-1's `go build ./... && go test
# ./...`: formatting, vet, documentation, race-enabled tests, fuzzing,
# the bench/ module, the ivmbench digest pins and the benchmark
# regression gate.
# Pass package patterns to narrow the race run (default: everything).
#
# Steps, in order: gofmt; go vet over the whole module; docscheck; the
# race run, which always covers internal/obs/..., internal/memsys,
# internal/sweep and internal/serve; bench/'s vet and tests; a race pass over the
# differential equivalence harness (docs/KERNEL.md) in short mode,
# which pins the packed kernel and the analytic gate to the scalar
# oracle with the fast path forced both on and off; ten seconds each of
# fuzzing the packed kernel against that oracle, the sweep's canonical
# keys, and the served request decoder against encoding/json; one-second
# ivmbench sweep-census, batch-cold and restart-warm runs, which pin the
# full census digest, the served batch route's digests and oracle
# sample, and every replayed answer of a reopened server; and a
# single-iteration bench.sh run diffed against the committed
# BENCH_sweep.json by scripts/benchdiff.go, gating on catastrophic
# timing regressions.
#
# The commands' end-to-end behaviour (exit codes, stderr, live /metrics,
# ivmserved's flags and warm restart, worker-count determinism, the
# Fig. 10c–e conflict counts) is held by the re-exec tests in
# cmd/*/main_test.go, which tier-1 runs.
#
# Golden files: the exporter tests in internal/obs compare against
# testdata/; after an intentional output change, regenerate with
#
#	go test ./internal/obs -run TestExporterGolden -update
#
# and review the testdata diff before committing.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

if [ "$#" -eq 0 ]; then
	set -- ./...
fi

# vet always covers the whole module, even for narrowed test runs —
# a narrow run must not let an unrelated package rot.
go vet ./...

# docs step: every exported identifier of every non-main package must
# carry a doc comment, every exported identifier under internal/ must
# have a non-test reference or an entry in docscheck's allowlist, every
# unexported declaration and struct field must have a non-test
# reference, and every relative Markdown link must resolve. References
# resolve by type (go list + go/types), and a method that implements an
# interface the module declares or imports counts as referenced.
go run ./internal/tools/docscheck

# The observability, simulator, sweep and serving packages are raced
# even in a narrowed run: their metrics registry, progress reporter,
# request traces, kernel, worker pool and the server's trace and
# slow-request rings are read across goroutines. go test runs a
# package named twice once.
go test -race "$@" ./internal/obs/... ./internal/memsys ./internal/sweep ./internal/serve

# bench/ is its own module (replace ivm => ../), so the root ./...
# patterns above never compile it — yet it imports the sweep surface.
(cd bench && go vet ./... && go test ./...)

# Differential equivalence harness, short mode: every Differential*
# test pits the fast path against the reference — the packed FindCycle
# search against the scalar oracle's, from idle and from busy banks,
# with the state it writes back stepped on and compared, and sweeps
# with the analytic gate and packed kernel forced on against the same
# sweeps forced off — so this pass exercises the fast path both on and
# off.
go test -race -short -run Differential ./internal/memsys ./internal/sweep

# Bounded fuzzing past the seed corpora: FuzzKernelEquivalence spends
# ten seconds on new configurations, each held to the scalar oracle
# through FindCycle and the state the search leaves behind. A failing
# input is saved under internal/memsys/testdata/fuzz/ and replays as a
# seed from then on.
go test -run '^$' -fuzz '^FuzzKernelEquivalence$' -fuzztime 10s ./internal/memsys

# FuzzSpecCanonical spends ten seconds on new spec shapes: each canonical
# key must be orbit-invariant and idempotent, and a worker that keyed
# one spec must key the next as a fresh worker does. Failing inputs go
# to internal/sweep/testdata/fuzz/.
go test -run '^$' -fuzz '^FuzzSpecCanonical$' -fuzztime 10s ./internal/sweep

# FuzzDecodeSpecs spends ten seconds on new request bodies, in the
# single and the batch shape, holding the /v1 scanner to an oracle
# (encoding/json plus SpecJSON.Spec): what the scanner accepts the
# oracle accepts with equal specs, what the oracle refuses the scanner
# refuses, and what only the scanner refuses holds a token outside its
# grammar. Failing inputs go to internal/serve/testdata/fuzz/.
go test -run '^$' -fuzz '^FuzzDecodeSpecs$' -fuzztime 10s ./internal/serve

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Full-census pin: ivmbench's sweep-census workload renders the
# paper-scale (13, 4) triple and (8, 2, 4) 4-stream tables, which the
# goldens and bench's TestQuick leave out, and exits nonzero when the
# census digest drifts from its pin.
if ! bash bench/run.sh --workload sweep-census --seed 1 --seconds 1 --trace 0 > "$tmp/census.log" 2>&1; then
	cat "$tmp/census.log" >&2
	echo "check.sh: ivmbench sweep-census failed or its census digest drifted" >&2
	exit 1
fi
echo "check.sh: full-census pin OK, ivmbench sweep-census exits 0"

# Served batch route: ivmbench's batch-cold workload sends full
# 512-spec batches of fresh 4-stream orbits through ivmserved's
# handler, checks its batch digests against their seed-1 pins and
# re-checks a sample of answers against the cold oracle, and exits
# nonzero on any wrong answer or failed request. bench's TestQuick
# sends only a few quick batches.
if ! bash bench/run.sh --workload batch-cold --seed 1 --seconds 1 --trace 0 > "$tmp/batch.log" 2>&1; then
	cat "$tmp/batch.log" >&2
	echo "check.sh: ivmbench batch-cold failed or its batch digest drifted" >&2
	exit 1
fi
echo "check.sh: served batch route OK, ivmbench batch-cold exits 0"

# Warm served route: ivmbench's restart-warm workload fills a store,
# reopens the server on it and replays every spec in 512-spec batches,
# comparing each replayed answer with its prelude value and the prelude
# with its pinned batch digest; it exits nonzero on any mismatch.
if ! bash bench/run.sh --workload restart-warm --seed 1 --seconds 1 --trace 0 > "$tmp/warm.log" 2>&1; then
	cat "$tmp/warm.log" >&2
	echo "check.sh: ivmbench restart-warm failed or its batch digest drifted" >&2
	exit 1
fi
echo "check.sh: warm served route OK, ivmbench restart-warm exits 0"

# Benchmark regression gate: a single-iteration bench.sh run diffed
# against the committed BENCH_sweep.json. One iteration is noisy (the
# served single-query metric amortises server startup over one
# request), so the threshold only catches catastrophic (order of
# magnitude) timing regressions; run scripts/bench.sh with the default
# benchtime for a real comparison.
if [ -f BENCH_sweep.json ]; then
	BENCH_OUT="$tmp/BENCH_new.json" scripts/bench.sh 1x > "$tmp/bench.log" 2>&1 || {
		cat "$tmp/bench.log" >&2
		echo "check.sh: bench.sh failed" >&2
		exit 1
	}
	go run ./scripts/benchdiff.go -threshold 900 BENCH_sweep.json "$tmp/BENCH_new.json"
	echo "check.sh: benchdiff regression gate OK (threshold 900%, 1x smoke run)"
fi
