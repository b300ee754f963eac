#!/bin/sh
# Bench baseline: run the root benchmark suite (one benchmark per paper
# exhibit plus the ablations) with -benchmem and persist the numbers as
# JSON, so perf PRs can diff wall time and allocations against a committed
# baseline (BENCH_pr8.json) instead of eyeballing `go test -bench` output.
#
# Usage: scripts/bench.sh [out.json] [bench-regex] [benchtime]
#   out.json     output file (default BENCH_pr10.json in the repo root)
#   bench-regex  -bench selector (default '.')
#   benchtime    -benchtime value (default 4x: fixed iteration count keeps
#                run time bounded and exhibits comparable)
#
# Each benchmark entry records iterations, ns/op, B/op, allocs/op, and any
# custom virtual-time metrics the exhibit reports (virt-us/op, img/s, MB/s,
# speedup). Wall-clock fields measure the simulator; the virtual metrics
# must stay bit-identical across perf work (see the golden-trace test).
#
# Regression gate: before overwriting the committed baseline, the script
# snapshots its Fig6/Fig7 wall-clock numbers and asserts the fresh run is
# within XCCL_BENCH_TOLERANCE percent (default 2) — the watchdog and
# fail-stop machinery must stay free on the non-faulty path. Override the
# tolerance when the machine is known to differ from the baseline's:
#
#   XCCL_BENCH_TOLERANCE=10 scripts/bench.sh
#
# The host's CPU count is recorded in the JSON as "cpus" so a baseline's
# wall-clock numbers can be read in context.
set -eu

cd "$(dirname "$0")/.."
out=${1:-BENCH_pr10.json}
bench=${2:-.}
benchtime=${3:-4x}
baseline=${XCCL_BENCH_BASELINE:-BENCH_pr8.json}
tolerance=${XCCL_BENCH_TOLERANCE:-2}
cpus=$(nproc 2>/dev/null || echo 1)

# ns_op of one benchmark entry in a baseline JSON ('' if absent).
ns_op() {
	[ -f "$1" ] || return 0
	sed -n "s/.*\"name\": \"$2\",.*\"ns_op\": \([0-9]*\).*/\1/p" "$1"
}

# virt_us_op (virtual-time metric) of one benchmark entry ('' if absent).
virt_us() {
	[ -f "$1" ] || return 0
	sed -n "s/.*\"name\": \"$2\",.*\"virt_us_op\": \([0-9.]*\).*/\1/p" "$1"
}
base_fig6=$(ns_op "$baseline" Fig6MultiNodeCollectives)
base_fig7=$(ns_op "$baseline" Fig7HorovodNvidia)

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

# No pipe: POSIX sh has no pipefail, and a benchmark crash (or go test's
# own timeout) must fail the script rather than persist a partial
# baseline. The suite at 4x runs well past go test's default 10m on
# small hosts, so the deadline is explicit.
go test -run '^$' -bench "$bench" -benchtime "$benchtime" -benchmem \
	-timeout "${XCCL_BENCH_TIMEOUT:-30m}" . >"$raw" 2>&1 || {
	cat "$raw"
	echo "bench.sh: benchmark run failed; baseline not written" >&2
	exit 1
}
cat "$raw"

awk -v benchtime="$benchtime" -v cpus="$cpus" '
BEGIN {
    printf "{\n  \"benchtime\": \"%s\",\n  \"cpus\": %s,\n  \"benchmarks\": [", benchtime, cpus
    n = 0
}
/^Benchmark/ {
    name = $1
    sub(/^Benchmark/, "", name)
    sub(/-[0-9]+$/, "", name) # strip the GOMAXPROCS suffix if present
    if (n++) printf ","
    printf "\n    {\"name\": \"%s\", \"iterations\": %s", name, $2
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/[^A-Za-z0-9]/, "_", unit) # "virt-us/op" -> "virt_us_op"
        printf ", \"%s\": %s", unit, $i
    }
    printf "}"
}
END { printf "\n  ]\n}\n" }
' "$raw" >"$out"

echo "bench.sh: wrote $(grep -c '"name"' "$out") benchmark entries to $out"

# Wall-clock gate against the pre-run baseline snapshot.
gate=0
check_ns() { # name baseline-ns new-ns
	if [ -z "$2" ] || [ -z "$3" ]; then
		echo "bench.sh: $1: no baseline to gate against (skipped)"
		return 0
	fi
	awk -v name="$1" -v base="$2" -v new="$3" -v tol="$tolerance" 'BEGIN {
		pct = (new - base) * 100 / base
		printf "bench.sh: %s wall clock %+.1f%% vs baseline (tolerance %s%%)\n", name, pct, tol
		exit pct > tol ? 1 : 0
	}' || return 1
}
check_ns Fig6MultiNodeCollectives "$base_fig6" "$(ns_op "$out" Fig6MultiNodeCollectives)" || gate=1
check_ns Fig7HorovodNvidia "$base_fig7" "$(ns_op "$out" Fig7HorovodNvidia)" || gate=1
if [ "$gate" != 0 ]; then
	echo "bench.sh: wall-clock regression beyond ${tolerance}% (set XCCL_BENCH_TOLERANCE to override)" >&2
	exit 1
fi

# Compiled-collective gate: on the Fig 6 multi-node topology the compiler's
# planned alltoall (phased permutation schedule) must beat the grouped
# send-recv loop by >= XCCL_BENCH_COMPILED_WIN percent of VIRTUAL time
# (default 20). Virtual time is machine-independent, so this gate has no
# tolerance knob for slow hosts — a miss means the plan search or the
# schedule itself regressed.
loop_us=$(virt_us "$out" Fig6AlltoallLoop)
comp_us=$(virt_us "$out" Fig6AlltoallCompiled)
if [ -n "$loop_us" ] && [ -n "$comp_us" ]; then
	awk -v loop="$loop_us" -v comp="$comp_us" -v want="${XCCL_BENCH_COMPILED_WIN:-20}" 'BEGIN {
		win = (loop - comp) * 100 / loop
		printf "bench.sh: compiled alltoall virtual-time win %.1f%% over the send-recv loop (want >= %s%%)\n", win, want
		exit win >= want ? 0 : 1
	}' || {
		echo "bench.sh: compiled alltoall win below ${XCCL_BENCH_COMPILED_WIN:-20}% (set XCCL_BENCH_COMPILED_WIN to override)" >&2
		exit 1
	}
fi
