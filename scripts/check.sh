#!/usr/bin/env bash
# Full verification gauntlet: formatting, vet, documentation, and
# race-enabled tests.
# Pass package patterns to narrow the test run (default: everything).
# The observability package is always exercised under the race
# detector, even for narrowed runs, because its metrics registry,
# progress reporter and request traces are read across goroutines. The simulator and sweep packages are always
# exercised under the race detector too, including a short pass over
# the differential equivalence harness (docs/KERNEL.md) that pins the
# packed kernel and the analytic gate to the scalar oracle with the
# fast path forced both on and off, followed by ten seconds of fuzzing
# the packed kernel against that oracle and ten of fuzzing the sweep's
# canonical keys. A single-iteration bench.sh run
# is then diffed against the committed BENCH_sweep.json by
# scripts/benchdiff.go, gating on catastrophic timing regressions.
# A one-second ivmbench sweep-census run pins the full census digest,
# the paper-scale triple and 4-stream tables included.
# Live probes close the run:
# the default ivmsweep runs under the cyclic and rr-cpu priority rules
# must exit 0 with nothing on stderr; ivmsweep -triples -m 13 -nc 4
# -full must print byte-identical output, engine counters included, at
# -workers 1 and 2, with and without the cache, and ivmsweep -m 8 -nc 2
# -streams 4 -full the same table with and without it; ivmsweep -m 8 -nc 0 and -m 0, ivmtriad -n 0 and
# -maxinc 0, ivmablate -study kernels -n 0 and ivmfigs -clocks -1 must
# exit 2 with a usage error naming the flag and no goroutine trace;
# README's ivmsweep -trace-out/-metrics-out command must exit 0 with
# nothing on stderr and write the "sweep workers" timeline and an
# "engine" snapshot;
# ivmablate's default run (every study, including the policy campaign
# that exits 1 on any cold/cached/warm mismatch) must exit 0;
# EXPERIMENTS.md's two Fig. 10c–e ivmsim -csv-out commands must exit 0
# with nothing on stderr, and their CSV conflict counts must equal the
# table's rows;
# ivmsweep serving -metrics-addr on a loopback port is scraped over
# HTTP, pinning the Prometheus exposition format end to end and, once
# the sweep finishes, progress done = planned = sweep units = the
# work-item latency histogram's _count (docs/OBSERVABILITY.md); ivmserved answers a known analytic pair
# with byte-pinned JSON plus a healthy /healthz (docs/SERVING.md); and
# a request tagged with a fixed X-Request-ID is followed end to end
# through the access log, the Chrome trace export and the
# request-duration histogram (docs/SERVING.md), with the request
# counter equal to the histogram's _count and the answer-path counter
# summing to the provenance path counter; and a restarted
# ivmserved on the same store answers a 4-stream orbit the first
# instance simulated from its cache, with no misses or evictions.
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

# docs step: every exported identifier in the audited packages must
# carry a doc comment, and every relative Markdown link must resolve.
go run ./internal/tools/docscheck . \
	internal/sweep internal/modmath internal/memsys internal/stats \
	internal/obs internal/obs/latency internal/obs/profile internal/textplot \
	internal/core internal/report internal/serve internal/cachestore

go test -race "$@"
go test -race ./internal/obs/...

# bench/ is its own module (replace ivm => ../), so the root ./...
# patterns above never compile it — yet it imports the sweep surface.
(cd bench && go vet ./... && go test ./...)
go test -race ./internal/memsys ./internal/sweep

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

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"; [ -n "${srv:-}" ] && kill "$srv" 2>/dev/null || true' EXIT

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

# Live metrics probe: a short ivmsweep run serving -metrics-addr is
# scraped over HTTP. /healthz must answer "ok" and /metrics must carry
# the pinned Prometheus exposition lines below — the byte-exact format
# itself is golden-tested in internal/obs (prom_test.go); this step
# pins the served wire format end to end.
go build -o "$tmp/ivmsweep" ./cmd/ivmsweep
go build -o "$tmp/ivmablate" ./cmd/ivmablate
go build -o "$tmp/ivmtriad" ./cmd/ivmtriad
go build -o "$tmp/ivmfigs" ./cmd/ivmfigs

# Quiet-default probe: valid sweeps under the non-fixed priority rules
# must exit 0 and write nothing to stderr (no flag-combination warning
# for a run that sets no fast-path option).
for args in "-m 8 -nc 2 -priority cyclic" "-m 12 -s 3 -nc 3 -priority rr-cpu -mapping consecutive"; do
	# shellcheck disable=SC2086 # args is a word list
	if ! "$tmp/ivmsweep" $args > /dev/null 2> "$tmp/quiet-stderr"; then
		echo "check.sh: ivmsweep $args failed:" >&2
		cat "$tmp/quiet-stderr" >&2
		exit 1
	fi
	if [ -s "$tmp/quiet-stderr" ]; then
		echo "check.sh: ivmsweep $args wrote to stderr:" >&2
		cat "$tmp/quiet-stderr" >&2
		exit 1
	fi
done
echo "check.sh: quiet-default probe OK, cyclic and rr-cpu sweeps exit 0 with empty stderr"

# Worker-count determinism probe: a sweep worker's simulator keeps the
# states its searches recorded and stops a later search at the first
# one it meets, so what a worker has recorded depends on which
# placements the scheduler gave it; the answers must not. The (13, 4)
# triple grid must print byte-identical output at -workers 1 and 2,
# with the cache at its default size (-cache 0) and with -cache -1,
# where every placement is
# simulated itself rather than its canonical representative, and the
# two runs' tables must agree. The engine counter footer is compared
# too: the cached grid folds each class of unit-isomorphic triples in
# one work item and the classes share no orbit, so no two workers can
# miss one orbit, and the grid's orbits fit the cache. With -cache -1 its clocks simulated must be the
# sum of Lead + Length over the grid's 76895 placements as fresh
# searches find them. The (8, 2, 4) 4-stream grid's table must be the
# same with and without the cache; its footer is left out, because its
# orbits overflow the default cache and which ones a shard drop
# discards depends on the order the workers put them in.
for cache in 0 -1; do
	for w in 1 2; do
		if ! "$tmp/ivmsweep" -triples -m 13 -nc 4 -full -workers "$w" -cache "$cache" > "$tmp/triples-$cache-w$w.txt" 2> "$tmp/triples-stderr"; then
			echo "check.sh: ivmsweep -triples -m 13 -nc 4 -full -workers $w -cache $cache failed:" >&2
			cat "$tmp/triples-stderr" >&2
			exit 1
		fi
		sed '/^engine counter/,$d' "$tmp/triples-$cache-w$w.txt" > "$tmp/triples-$cache-w$w.table"
	done
done
for pair in "0-w1.txt 0-w2.txt" "-1-w1.txt -1-w2.txt" "0-w1.table -1-w1.table"; do
	read -r a b <<< "$pair"
	if ! cmp -s "$tmp/triples-$a" "$tmp/triples-$b"; then
		echo "check.sh: ivmsweep -triples -m 13 -nc 4 -full output differs between runs $a and $b (cache-workers):" >&2
		diff "$tmp/triples-$a" "$tmp/triples-$b" | head -20 >&2
		exit 1
	fi
done
if ! grep -qx 'steps simulated *12464128 *' "$tmp/triples--1-w1.txt"; then
	echo "check.sh: ivmsweep -triples -m 13 -nc 4 -full -cache -1 simulated other clocks than fresh searches do:" >&2
	grep '^steps simulated' "$tmp/triples--1-w1.txt" >&2
	exit 1
fi
for cache in 0 -1; do
	if ! "$tmp/ivmsweep" -m 8 -nc 2 -streams 4 -full -cache "$cache" > "$tmp/stream4-$cache.txt" 2> "$tmp/stream4-stderr"; then
		echo "check.sh: ivmsweep -m 8 -nc 2 -streams 4 -full -cache $cache failed:" >&2
		cat "$tmp/stream4-stderr" >&2
		exit 1
	fi
	sed '/^engine counter/,$d' "$tmp/stream4-$cache.txt" > "$tmp/stream4-$cache.table"
done
if ! cmp -s "$tmp/stream4-0.table" "$tmp/stream4--1.table"; then
	echo "check.sh: ivmsweep -m 8 -nc 2 -streams 4 -full tables differ with and without the cache:" >&2
	diff "$tmp/stream4-0.table" "$tmp/stream4--1.table" | head -20 >&2
	exit 1
fi
echo "check.sh: worker-count determinism probe OK, (13, 4) triple output identical at -workers 1 and 2, cached and uncached; (8, 2, 4) stream4 tables identical with and without the cache"

# Bad-geometry probe: an impossible memory geometry, vector length,
# increment range or timeline width is a usage error (exit 2) whose
# message names the flag, not a panic from a sweep worker or workload
# builder and not an empty table. A goroutine trace is matched by its
# "goroutine N [" header, since the usage text's -workers line says
# "goroutines" too.
for probe in "ivmsweep -m 8 -nc 0|-nc" "ivmsweep -m 0|-m" "ivmtriad -n 0|-n" "ivmtriad -maxinc 0|-maxinc" \
	"ivmablate -study kernels -n 0|-n" "ivmfigs -clocks -1|-clocks"; do
	args="${probe%|*}" flagname="${probe#*|}"
	read -r -a argv <<< "$args"
	code=0
	"$tmp/${argv[0]}" "${argv[@]:1}" > /dev/null 2> "$tmp/geom-stderr" || code=$?
	if [ "$code" -ne 2 ] || ! grep -qF -- "$flagname wants" "$tmp/geom-stderr" || grep -qE '^panic:|goroutine [0-9]+ \[' "$tmp/geom-stderr"; then
		echo "check.sh: $args exited $code; want 2 and a usage error naming $flagname:" >&2
		cat "$tmp/geom-stderr" >&2
		exit 1
	fi
done
echo "check.sh: bad-geometry probe OK, ivmsweep -m 8 -nc 0 and -m 0, ivmtriad -n 0 and -maxinc 0, ivmablate -study kernels -n 0 and ivmfigs -clocks -1 exit 2 naming the flag"

# Sweep-observability probe: README's ivmsweep -trace-out/-metrics-out
# command on a small grid exits 0 with empty stderr, writes the worker
# timeline and writes an engine snapshot.
if ! "$tmp/ivmsweep" -m 8 -nc 2 -workers 2 -trace-out "$tmp/sweep-trace.json" \
	-metrics-out "$tmp/sweep-metrics.json" > /dev/null 2> "$tmp/obs-stderr"; then
	echo "check.sh: ivmsweep -trace-out/-metrics-out failed:" >&2
	cat "$tmp/obs-stderr" >&2
	exit 1
fi
if [ -s "$tmp/obs-stderr" ]; then
	echo "check.sh: ivmsweep -trace-out/-metrics-out wrote to stderr:" >&2
	cat "$tmp/obs-stderr" >&2
	exit 1
fi
if ! grep -q '"sweep workers"' "$tmp/sweep-trace.json"; then
	echo "check.sh: ivmsweep -trace-out has no \"sweep workers\" process" >&2
	exit 1
fi
if ! grep -q '"engine"' "$tmp/sweep-metrics.json"; then
	echo "check.sh: ivmsweep -metrics-out has no \"engine\" snapshot" >&2
	exit 1
fi
echo "check.sh: sweep-observability probe OK, worker trace and engine snapshot written"

# Ablation probe: every ivmablate study runs; the policy campaign
# exits 1 on any mismatch between the cold, cached and warm paths.
if ! "$tmp/ivmablate" > "$tmp/ablate.out" 2>&1; then
	echo "check.sh: ivmablate failed:" >&2
	cat "$tmp/ablate.out" >&2
	exit 1
fi
echo "check.sh: ablation probe OK, every ivmablate study exits 0"

# Fig. 10c–e probe: EXPERIMENTS.md's INC=4 and INC=5 ivmsim -csv-out
# runs, counted with its awk command (in a fixed column order), must
# reproduce the table's bank/simultaneous/section rows.
go build -o "$tmp/ivmsim" ./cmd/ivmsim
for row in "4 4609 1535 1" "5 5614 19 529"; do
	read -r inc bank simult section <<< "$row"
	if ! "$tmp/ivmsim" -m 16 -s 4 -nc 4 -clocks 2048 \
		-streams "0:$inc:0,1:$inc:0,2:$inc:0,0:1:1,4:1:1,8:1:1" -csv-out "$tmp/inc$inc.csv" \
		> /dev/null 2> "$tmp/ivmsim-stderr"; then
		echo "check.sh: ivmsim INC=$inc -csv-out failed:" >&2
		cat "$tmp/ivmsim-stderr" >&2
		exit 1
	fi
	if [ -s "$tmp/ivmsim-stderr" ]; then
		echo "check.sh: ivmsim INC=$inc -csv-out wrote to stderr:" >&2
		cat "$tmp/ivmsim-stderr" >&2
		exit 1
	fi
	got="$(awk -F, 'NR>1 && $6!="grant" {n[$6]++} END {print n["bank"]+0, n["simultaneous"]+0, n["section"]+0}' "$tmp/inc$inc.csv")"
	if [ "$got" != "$bank $simult $section" ]; then
		echo "check.sh: ivmsim INC=$inc conflict counts $got, EXPERIMENTS.md says $bank $simult $section" >&2
		exit 1
	fi
done
echo "check.sh: Fig. 10c-e probe OK, ivmsim -csv-out counts match EXPERIMENTS.md"

"$tmp/ivmsweep" -m 13 -nc 4 -metrics-addr 127.0.0.1:0 -metrics-linger 30s \
	> /dev/null 2> "$tmp/stderr" &
srv=$!
addr=""
for _ in $(seq 1 100); do
	addr="$(sed -n 's#^serving metrics on http://\([^/]*\)/metrics.*#\1#p' "$tmp/stderr")"
	[ -n "$addr" ] && break
	sleep 0.1
done
if [ -z "$addr" ]; then
	echo "check.sh: metrics server did not announce an address" >&2
	exit 1
fi
health="$(curl -fsS "http://$addr/healthz")"
if [ "$health" != "ok" ]; then
	echo "check.sh: /healthz answered \"$health\", want \"ok\"" >&2
	exit 1
fi
# The sweep may still be running on the first scrape; retry until the
# provenance counters (recorded as placements resolve) are exposed.
metrics=""
for _ in $(seq 1 100); do
	metrics="$(curl -fsS "http://$addr/metrics")"
	printf '%s\n' "$metrics" | grep -q '^ivm_provenance_path_total{' && break
	sleep 0.1
done
ctype="$(curl -fsSI "http://$addr/metrics" | tr -d '\r' | sed -n 's/^[Cc]ontent-[Tt]ype: //p')"
if [ "$ctype" != "text/plain; version=0.0.4; charset=utf-8" ]; then
	echo "check.sh: /metrics Content-Type \"$ctype\" is not exposition format 0.0.4" >&2
	exit 1
fi
for line in \
	'# TYPE ivm_up gauge' \
	'ivm_up 1' \
	'# TYPE ivm_sweep_cache_hits_total counter' \
	'# TYPE ivm_sweep_analytic_hits_total counter' \
	'# TYPE ivm_provenance_path_total counter' \
	'# TYPE ivm_progress_items_done_total counter'; do
	if ! printf '%s\n' "$metrics" | grep -qFx "$line"; then
		echo "check.sh: /metrics missing pinned exposition line: $line" >&2
		exit 1
	fi
done
# Progress end to end: once the sweep has finished (ivmsweep announces
# its linger), the progress view read from the engine must count every
# planned item as done, and agree with the engine's own unit counter
# and with the item latency histogram the engine observes every item
# into.
for _ in $(seq 1 300); do
	grep -q '^metrics server lingering' "$tmp/stderr" && break
	sleep 0.1
done
if ! grep -q '^metrics server lingering' "$tmp/stderr"; then
	echo "check.sh: ivmsweep did not finish its sweep" >&2
	exit 1
fi
metrics="$(curl -fsS "http://$addr/metrics")"
sample() { printf '%s\n' "$metrics" | sed -n "s/^$1 //p"; }
done_items="$(sample ivm_progress_items_done_total)"
planned="$(sample ivm_progress_items)"
units="$(sample ivm_sweep_units_total)"
if [ -z "$done_items" ] || [ "$done_items" = 0 ] || [ "$done_items" != "$planned" ] || [ "$done_items" != "$units" ]; then
	echo "check.sh: progress drifted: done $done_items, planned $planned, sweep units $units" >&2
	exit 1
fi
item_count="$(sample ivm_sweep_item_duration_seconds_count)"
if [ "$item_count" != "$units" ]; then
	echo "check.sh: ivm_sweep_item_duration_seconds_count $item_count != ivm_sweep_units_total $units" >&2
	exit 1
fi
kill "$srv" 2>/dev/null || true
wait "$srv" 2>/dev/null || true
srv=""
echo "check.sh: live /metrics, /healthz and progress probes OK (http://$addr; $done_items items)"

# Live serving probe: an ivmserved instance on a loopback port must
# answer the known unique-barrier pair (m=16 nc=4 strides 1,2; eq-29
# proves b_eff = 3/2) with the exact bytes below — the wire format is
# part of the API (docs/SERVING.md; internal/serve pins the same bytes
# in TestServeBandwidthPinned) — and /healthz must report a healthy
# store.
go build -o "$tmp/ivmserved" ./cmd/ivmserved
"$tmp/ivmserved" -addr 127.0.0.1:0 -cache-dir "$tmp/cache" \
	-access-log "$tmp/access.log" -slow-ms 0 \
	2> "$tmp/served-stderr" &
srv=$!
addr=""
for _ in $(seq 1 100); do
	addr="$(sed -n 's#^ivmserved listening on http://\(.*\)$#\1#p' "$tmp/served-stderr")"
	[ -n "$addr" ] && break
	sleep 0.1
done
if [ -z "$addr" ]; then
	echo "check.sh: ivmserved did not announce an address" >&2
	exit 1
fi
body='{"m":16,"nc":4,"streams":[{"d":1,"b":0,"cpu":0},{"d":2,"b":0,"cpu":1}]}'
want='{"family":"pair","b_eff":"3/2","num":3,"den":2,"path":"analytic","theorem":"eq-29"}'
got="$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$body" "http://$addr/v1/bandwidth")"
if [ "$got" != "$want" ]; then
	echo "check.sh: /v1/bandwidth drifted:" >&2
	echo "  got:  $got" >&2
	echo "  want: $want" >&2
	exit 1
fi
health="$(curl -fsS "http://$addr/healthz")"
case "$health" in
'{"status":"ok","store":'*) ;;
*)
	echo "check.sh: ivmserved /healthz answered \"$health\", want status ok with store integrity" >&2
	exit 1
	;;
esac
if ! curl -fsS "http://$addr/metrics" | grep -q '^ivmserved_requests_total{endpoint="bandwidth"} 1$'; then
	echo "check.sh: ivmserved /metrics missing the bandwidth request counter" >&2
	exit 1
fi

# Live observability probe (docs/SERVING.md): a request tagged with a
# fixed X-Request-ID must echo the ID, surface in the structured
# access log and the exported Chrome trace, and land in the
# request-duration histogram with _count equal to the bandwidth
# requests served so far (the pinned request above plus this one).
rid="check-sh-trace-0001"
echoed="$(curl -fsS -D - -o "$tmp/rid-body" -X POST -H 'Content-Type: application/json' \
	-H "X-Request-ID: $rid" -d "$body" "http://$addr/v1/bandwidth" |
	tr -d '\r' | sed -n 's/^[Xx]-[Rr]equest-[Ii][Dd]: //p')"
if [ "$echoed" != "$rid" ]; then
	echo "check.sh: X-Request-ID not echoed: got \"$echoed\", want \"$rid\"" >&2
	exit 1
fi
if [ "$(cat "$tmp/rid-body")" != "$want" ]; then
	echo "check.sh: traced /v1/bandwidth answer drifted: $(cat "$tmp/rid-body")" >&2
	exit 1
fi
# The access log line is written after the handler returns, so the
# client can observe the response a beat before the line lands.
logged=""
for _ in $(seq 1 100); do
	if grep -q "$rid" "$tmp/access.log" 2>/dev/null; then
		logged=yes
		break
	fi
	sleep 0.1
done
if [ -z "$logged" ]; then
	echo "check.sh: request ID $rid never appeared in the access log" >&2
	cat "$tmp/access.log" >&2 || true
	exit 1
fi
if ! grep "$rid" "$tmp/access.log" | grep -q '"path":"analytic"'; then
	echo "check.sh: access log line for $rid lacks the analytic path attribution" >&2
	grep "$rid" "$tmp/access.log" >&2
	exit 1
fi
if ! curl -fsS "http://$addr/debug/requests.trace" | grep -q "$rid"; then
	echo "check.sh: request ID $rid not found in the exported Chrome trace" >&2
	exit 1
fi
metrics="$(curl -fsS "http://$addr/metrics")"
if ! printf '%s\n' "$metrics" | grep -q '^ivmserved_request_duration_seconds_bucket{endpoint="bandwidth",le="'; then
	echo "check.sh: /metrics missing request-duration histogram buckets" >&2
	exit 1
fi
if ! printf '%s\n' "$metrics" | grep -q '^ivmserved_request_duration_seconds_count{endpoint="bandwidth"} 2$'; then
	echo "check.sh: request-duration histogram _count != 2 bandwidth requests served" >&2
	printf '%s\n' "$metrics" | grep '^ivmserved_request_duration_seconds_count' >&2 || true
	exit 1
fi
if ! printf '%s\n' "$metrics" | grep -q '^ivmserved_request_seconds_total{endpoint="bandwidth"}'; then
	echo "check.sh: legacy ivmserved_request_seconds_total counter dropped" >&2
	exit 1
fi
if ! curl -fsS "http://$addr/statusz" | grep -q 'ivmserved status'; then
	echo "check.sh: /statusz did not render" >&2
	exit 1
fi
# A 4-stream spec is outside the analytic gate, so this instance must
# simulate it and append the orbit to its store for the restart below.
body4='{"m":16,"nc":4,"streams":[{"d":1,"b":0,"cpu":0},{"d":3,"b":5,"cpu":1},{"d":5,"b":2,"cpu":0},{"d":7,"b":9,"cpu":1}]}'
cold4="$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$body4" "http://$addr/v1/bandwidth")"
case "$cold4" in
*'"path":"sim-'*) ;;
*)
	echo "check.sh: 4-stream spec was not simulated on a fresh store: $cold4" >&2
	exit 1
	;;
esac
# One tally per answer: the request counter is the latency histogram's
# _count, and the answer-path counter sums to the provenance path
# counter, both read from the engine's one count of resolved placements.
metrics="$(curl -fsS "http://$addr/metrics")"
reqs="$(sample 'ivmserved_requests_total{endpoint="bandwidth"}')"
hcount="$(sample 'ivmserved_request_duration_seconds_count{endpoint="bandwidth"}')"
if [ -z "$reqs" ] || [ "$reqs" != "$hcount" ]; then
	echo "check.sh: ivmserved_requests_total{endpoint=\"bandwidth\"} $reqs != histogram _count $hcount" >&2
	exit 1
fi
sumseries() { printf '%s\n' "$metrics" | awk -v p="$1{" 'index($0, p) == 1 { s += $NF } END { print s + 0 }'; }
responses="$(sumseries ivmserved_responses_total)"
provpaths="$(sumseries ivm_provenance_path_total)"
if [ "$responses" = 0 ] || [ "$responses" != "$provpaths" ]; then
	echo "check.sh: ivmserved_responses_total sums to $responses, ivm_provenance_path_total to $provpaths" >&2
	exit 1
fi
kill "$srv" 2>/dev/null || true
wait "$srv" 2>/dev/null || true
srv=""
echo "check.sh: live ivmserved probe OK, trace $rid followed through log, trace export and histogram (http://$addr)"

# Warm-restart probe (docs/CACHING.md, "Shards and eviction"): a second
# ivmserved on the same -cache-dir must answer the 4-stream spec the
# first instance simulated from its cache, having seeded the whole
# store without a miss or a wholesale shard drop.
"$tmp/ivmserved" -addr 127.0.0.1:0 -cache-dir "$tmp/cache" \
	2> "$tmp/served2-stderr" &
srv=$!
addr=""
for _ in $(seq 1 100); do
	addr="$(sed -n 's#^ivmserved listening on http://\(.*\)$#\1#p' "$tmp/served2-stderr")"
	[ -n "$addr" ] && break
	sleep 0.1
done
if [ -z "$addr" ]; then
	echo "check.sh: restarted ivmserved did not announce an address" >&2
	cat "$tmp/served2-stderr" >&2
	exit 1
fi
warm4="$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$body4" "http://$addr/v1/bandwidth")"
case "$warm4" in
*'"path":"cache"'*) ;;
*)
	echo "check.sh: restarted ivmserved did not answer the stored 4-stream orbit from cache: $warm4" >&2
	exit 1
	;;
esac
metrics="$(curl -fsS "http://$addr/metrics")"
for want in 'ivm_sweep_cache_misses_total 0' 'ivm_sweep_cache_evicted_total 0'; do
	if ! printf '%s\n' "$metrics" | grep -qx "$want"; then
		echo "check.sh: restarted ivmserved /metrics lacks \"$want\"" >&2
		printf '%s\n' "$metrics" | grep '^ivm_sweep_cache_' >&2 || true
		exit 1
	fi
done
kill "$srv" 2>/dev/null || true
wait "$srv" 2>/dev/null || true
srv=""
echo "check.sh: warm-restart probe OK, stored orbit answered from cache with no misses or evictions (http://$addr)"
