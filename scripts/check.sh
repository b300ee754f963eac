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
# internal/sim's suite includes the sharded-engine tests (shard_test.go),
# whose windows genuinely run shards on separate OS threads — the race
# detector is the proof that cross-shard traffic only moves through the
# outbox/flush protocol.
# internal/ccl/comp is the collective compiler: the plan search is pure,
# but its lowered programs drive the executor's pipelined primitives, so
# the IR/cost/search suite joins the race rotation wholesale (it is small).
go test -race mpixccl/internal/metrics mpixccl/internal/sim mpixccl/internal/fault mpixccl/internal/fabric mpixccl/internal/core mpixccl/internal/ccl/comp
# The experiments race leg covers the parallel runner, the chaos soak
# (short rotation: collective, elastic, and partition schedules; shard
# invariance pins the partition verdicts at 1 vs 4 shards), and the
# scale model's cross-shard fault/partition determinism tests.
go test -race -run 'TestRunAll|TestChaosShort|TestChaosShardInvariant|TestScale|TestPartitionVerdicts' mpixccl/internal/experiments
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
# Sharded-engine smoke: regenerating an exhibit through the CLI at
# -shards 4 must be byte-identical to the serial run (wall-time footer
# lines excluded; the full proof across world constructors is
# TestGoldenShardInvariance). Plus one scaling-sweep row to keep the
# -scale ranks= entry point alive.
serial=$(go run ./cmd/xcclbench -exp fig1a | grep -v 'wall time')
sharded=$(go run ./cmd/xcclbench -exp fig1a -shards 4 | grep -v 'wall time')
if [ "$serial" != "$sharded" ]; then
	echo "check.sh: xcclbench -shards 4 output diverged from serial" >&2
	exit 1
fi
go run ./cmd/xcclbench -scale ranks=256,shards=2 >/dev/null
# Compiler smoke: -compile must leave the exhibit pipeline deterministic —
# the compiled fig5 grid (the only exhibit with an alltoall column) must be
# byte-identical between the serial and 4-shard engines. With -compile OFF
# the goldens are already pinned byte-for-byte by TestGoldenVirtualTime, so
# together the two proofs bracket the flag.
comp_serial=$(go run ./cmd/xcclbench -exp fig5 -compile | grep -v 'wall time')
comp_sharded=$(go run ./cmd/xcclbench -exp fig5 -compile -shards 4 | grep -v 'wall time')
if [ "$comp_serial" != "$comp_sharded" ]; then
	echo "check.sh: xcclbench -exp fig5 -compile diverged at -shards 4" >&2
	exit 1
fi
# Partition smoke: the quorum/fence/rejoin exhibit regenerates through the
# CLI at 1 and 4 shards with identical output. With partitions off the
# other exhibits are pinned byte-for-byte against the committed golden by
# TestGoldenVirtualTime in the suite above.
pserial=$(go run ./cmd/xcclbench -exp partition | grep -v 'wall time')
psharded=$(go run ./cmd/xcclbench -exp partition -shards 4 | grep -v 'wall time')
if [ "$pserial" != "$psharded" ]; then
	echo "check.sh: xcclbench -exp partition diverged at -shards 4" >&2
	exit 1
fi
echo "check.sh: all clean"
