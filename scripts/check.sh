#!/bin/sh
# Pre-PR gate: formatting, vet, build, tests. Run from the repo root.
set -eu

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
# The float32 sum kernel is amd64 assembly; cross-vet the packages that
# reach it for arm64 so the portable stub keeps building (a standard-library
# cross-build, no download).
GOARCH=arm64 go vet ./internal/elem ./internal/ccl ./internal/mpi
go build ./...
go test ./...
# Docs are a public surface too: every relative link and repo path they
# mention must resolve.
scripts/doclinks.sh
# The packages whose state is shared across sim procs (or any caller):
# re-run under the race detector. internal/experiments exercises the
# parallel runner, whose worlds must not share mutable state; internal/core
# includes the concurrent-runtime breaker and fail-stop recovery tests plus
# the persistent-handle property tests (the zero-alloc measurements carry a
# !race build tag and step aside here — ReadMemStats deltas are meaningless
# under the detector's instrumented allocator). internal/fabric joins for
# the integrity retransmit loop (corruption probe + CRC verify on shared
# buffers).
# internal/ccl/comp is the collective compiler: the plan search is pure,
# but its lowered programs drive the executor's pipelined primitives, so
# the IR/cost/search suite joins the race rotation wholesale (it is small).
go test -race mpixccl/internal/metrics mpixccl/internal/sim mpixccl/internal/fault mpixccl/internal/fabric mpixccl/internal/core mpixccl/internal/ccl/comp
# The experiments race leg covers the parallel runner, the chaos soak
# (short rotation: collective, elastic, and partition schedules), the
# partition verdicts' reproducibility, and the scale model's
# fault/partition determinism tests.
go test -race -run 'TestRunAll|TestChaosShort|TestScale|TestPartitionVerdicts' mpixccl/internal/experiments
# dl's recovery path (watchdog + shrink + rollback) and the persistent hot
# loop are the dl surfaces with cross-layer shared state; the remaining
# Train* exhibits are single-kernel and wall-clock heavy, so the race pass
# is scoped to the elastic + persistent tests.
go test -race -run 'TestTrainElastic|TestTrainPersistent' mpixccl/internal/dl
# The hierarchical collectives recycle opArgs/runCtx through shared pools
# and spawn pipeline helper procs; the property tests cover every phase
# interleaving, so they are the ccl surface worth a race pass. TestCompiled
# adds the compiled executor: every plan strategy's primitive DAG runs its
# steps through the same pooled pipes. TestDirectRead covers the pipes'
# direct reads of peer buffers: a straggler still reading while its peers
# reuse their buffers, and the staged path under corruption. Those reads
# are reductions; -race builds leave out elem's assembly kernel, which the
# detector cannot see, so they stay instrumented.
go test -race -run 'TestHier|TestForcedFlat|TestCollectivePools|TestCompiled|TestDirectRead' mpixccl/internal/ccl
# Bench smoke: one fixed iteration proves the benchmark harness still
# runs end to end (full baselines come from scripts/bench.sh).
go test -run '^$' -bench '^BenchmarkFig1aAllreduceCrossover$' -benchtime 1x .
# Chaos smoke: a short seeded soak through the CLI entry point proves the
# randomized fault schedules — including two partition schedules in the
# six-run rotation — still terminate with every invariant held, inside
# the per-schedule wall-clock deadline.
go run ./cmd/xcclbench -chaos seed=7,runs=6 >/dev/null
# Spec smoke: ombrun must refuse a malformed fault spec rather than run the
# sweep on a silently truncated one.
if go run ./cmd/ombrun -bench allreduce -crash 2@10junk -max 1024 >/dev/null 2>&1; then
	echo "check.sh: ombrun accepted the malformed -crash spec 2@10junk" >&2
	exit 1
fi
# Scale-model smoke: one row keeps the -scale ranks= entry point alive.
go run ./cmd/xcclbench -scale ranks=256 >/dev/null
# Compiler smoke: -compile must leave the exhibit pipeline deterministic —
# two CLI runs of the compiled fig5 grid (the only exhibit with an alltoall
# column) must be byte-identical (wall-time footer lines excluded). With
# -compile OFF the goldens are already pinned byte-for-byte by
# TestGoldenVirtualTime, so together the two proofs bracket the flag.
comp_first=$(go run ./cmd/xcclbench -exp fig5 -compile | grep -v 'wall time')
comp_second=$(go run ./cmd/xcclbench -exp fig5 -compile | grep -v 'wall time')
if [ "$comp_first" != "$comp_second" ]; then
	echo "check.sh: xcclbench -exp fig5 -compile differs between two runs" >&2
	exit 1
fi
# Partition smoke: the quorum/fence/rejoin exhibit regenerates through the
# CLI. With partitions off the other exhibits are pinned byte-for-byte
# against the committed golden by TestGoldenVirtualTime in the suite above.
go run ./cmd/xcclbench -exp partition >/dev/null
echo "check.sh: all clean"
