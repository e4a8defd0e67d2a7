#!/usr/bin/env sh
# Runs the data-plane benchmarks and emits a BENCH_<utc-timestamp>.json in
# the repo root, in the shape tracked across PRs (see BENCH_BASELINE.json).
#
# Usage: ./benchmarks/run.sh [extra go test args...]
set -eu

cd "$(dirname "$0")/.."
stamp=$(date -u +%Y%m%dT%H%M%SZ)
out="BENCH_${stamp}.json"
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench . -benchmem "$@" \
	./internal/gf256 ./internal/erasure ./internal/secretshare \
	./internal/depsky ./benchmarks | tee "$raw"

# The telemetry-overhead guard compares the ns/op of two near-identical
# legs (HedgedTelemetry vs Hedged) at a 5% tolerance — far below the
# scheduler noise of a handful of iterations. Re-measure that pair at a
# fixed high iteration count; in the merge below the later measurement of
# a benchmark wins.
go test -run '^$' -bench 'BenchmarkDepSkyHedgedRead/(Hedged|HedgedTelemetry)$' \
	-benchmem -benchtime 800x ./benchmarks | tee -a "$raw"

# The metadata-plane guards compare legs whose interesting behavior only
# shows under real concurrency: the storm needs its full 1024 sessions (b.N
# is the session count, capped at 1024) and enough operations per session
# for the coalescer to reach steady state, and the pipelining pair needs the
# serialized leg to run long enough to amortize group startup. Re-measure
# both at fixed iteration counts. The storm pattern also covers the
# SingleTelemetry leg, whose 1.05x ns/op benchguard ceiling pins the cost
# of full metadata-plane instrumentation (tracing + flight recorder).
go test -run '^$' -bench 'BenchmarkSMRPipeline' -benchmem -benchtime 2000x ./benchmarks | tee -a "$raw"
# One session's operation through an idle coalescer is ~0.1 ms on either
# leg, and the guard's ceiling is 1.3x: a handful of iterations cannot tell
# that from a scheduler hiccup.
go test -run '^$' -bench 'BenchmarkCoalescerIdle' -benchmem -benchtime 10000x ./benchmarks | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkMetadataStorm' -benchmem -benchtime 20000x ./benchmarks | tee -a "$raw"
# A collection is a few round trips of simulated waiting, and each
# iteration rebuilds its garbage untimed: twenty iterations pin the
# Files64/Files8 ratio well inside its 3.5x ceiling.
go test -run '^$' -bench 'BenchmarkCollect' -benchmem -benchtime 20x ./benchmarks | tee -a "$raw"

awk -v go_version="$(go version | awk '{print $3}')" -v stamp="$stamp" '
/^Benchmark/ {
	name = $1; sub(/-[0-9]+$/, "", name)
	iters = $2
	ns = ""; mbs = ""; bop = ""; allocs = ""; cloudb = ""; cloudreq = ""; dollar = ""
	coordrt = ""
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op") ns = $(i-1)
		if ($i == "MB/s") mbs = $(i-1)
		if ($i == "B/op") bop = $(i-1)
		if ($i == "allocs/op") allocs = $(i-1)
		if ($i == "cloudB/op") cloudb = $(i-1)
		if ($i == "cloudReq/op") cloudreq = $(i-1)
		if ($i == "$/op") dollar = $(i-1)
		if ($i == "coordRT/op") coordrt = $(i-1)
	}
	if (ns == "") next
	entry = sprintf("\"%s\": {\"n\": %s, \"ns_op\": %s", name, iters, ns)
	if (mbs != "") entry = entry sprintf(", \"mb_s\": %s", mbs)
	if (bop != "") entry = entry sprintf(", \"b_op\": %s", bop)
	if (allocs != "") entry = entry sprintf(", \"allocs_op\": %s", allocs)
	if (cloudb != "") entry = entry sprintf(", \"cloud_b_op\": %s", cloudb)
	if (cloudreq != "") entry = entry sprintf(", \"cloud_req_op\": %s", cloudreq)
	if (dollar != "") entry = entry sprintf(", \"dollar_op\": %s", dollar)
	if (coordrt != "") entry = entry sprintf(", \"coord_rt_op\": %s", coordrt)
	entry = entry "}"
	if (!(name in entries)) order[++count] = name
	entries[name] = entry  # later measurements of a name win
}
END {
	print "{"
	printf "  \"captured\": \"%s\",\n  \"go\": \"%s\",\n  \"benchmarks\": {", stamp, go_version
	for (i = 1; i <= count; i++) {
		if (i > 1) printf ","
		printf "\n    %s", entries[order[i]]
	}
	print "\n  }\n}"
}
' "$raw" > "$out"

echo "wrote $out"
