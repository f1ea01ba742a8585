#!/bin/sh
# Repository verification: formatting, static checks, the full test
# suite, race-detector passes over every internally concurrent path
# (model-checker BFS, partial-order reduction, sharded exploration,
# sim engine, runner worker pool, parallel sweep executor, bus,
# scheduler queue, serving daemon, single-flight group), the fuzz
# targets in seed-corpus mode, the differential sim<->mcheck harness,
# the distributed-check differential (a /v1/check sharded across a
# 3-replica fleet must be byte-identical to a single replica's
# answer, counterexamples included — and stay so when a replica is
# killed mid-check and its session fails over via the shared
# checkpoint root), the mcheck kill-and-resume smoke (SIGKILL a
# checkpointing run, resume it, byte-identical summary) plus the
# pinned disk-backed bitar p4 exhaustive check, the table-vs-method differential plus the
# transition-table freshness gate (committed goldens must match the
# tables compiled from the protocol code), a live
# cachesyncd smoke (start, probe — including the -pprof diagnostic
# mount — graceful stop), the steady-state allocation gates of the
# direct and blocking workload paths, and the six committed-baseline gates
# (mcheck perf, sim-engine ops/s, two-tier Aquarius cycles+broadcast
# fraction, artifact manifest, serving
# throughput, and cluster throughput — the last driven through a
# 3-replica cachesyncc fleet with a mid-run replica SIGKILL that must
# produce zero responses other than 2xx/clean-429, plus respawn and
# re-admission to full health).
set -eu
cd "$(dirname "$0")"

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== go test -race (mcheck + sim smoke)"
go test -race -short -run 'TestSmokeAllProtocols|TestDeterministicAcrossWorkers|TestSymmetryEquivalence|TestDeterministicWorkersMutant|TestPOREquivalence|TestPORMutant|TestShardedEquivalence|TestShardedTruncation|TestShardedRejectsPOR|TestSpillEquivalence|TestPORSpillBudget|TestKillResumeByteIdentical|TestKillResumePOR|TestShardSessionCheckpointResume' ./internal/mcheck/
go test -race -short ./internal/sim/

echo "== go test -race (blocking workloads as coroutines: generator goldens, blocking-vs-direct differential, sync primitives)"
go test -race -short -run 'TestGeneratorGoldens|TestDirectMatchesShim' ./internal/workload/
go test -race -short ./internal/syncprim/

echo "== go test -race (runner pool, parallel sweep executor, bus, scheduler queue)"
go test -race -short ./internal/runner/ ./internal/simrun/ ./internal/bus/ ./internal/schedqueue/

echo "== go test -race (interconnect fabrics, two-tier Aquarius machine)"
go test -race -short ./internal/interconnect/ ./internal/aquarius/

echo "== go test -race (serving daemon, single-flight)"
go test -race -short ./internal/serve/ ./internal/flight/

echo "== go test -race (cluster coordinator, portfile handshake)"
go test -race -short ./internal/cluster/ ./internal/portfile/

echo "== distributed-check differential (sharded /v1/check vs one replica, with and without a replica dying mid-check)"
go test -run 'TestShardedCheckMatchesSingle|TestShardedCheckValidation|TestShardedCheckSurvivesReplicaDeath' ./internal/cluster/

echo "== differential sim<->mcheck harness"
go test -short -run 'TestDifferentialSimMcheck|TestDifferentialHarnessDetectsSeededBug' ./internal/ptest/

echo "== table-vs-method differential (compiled tables against the method oracle)"
go test -run 'TestTableVsMethod' ./internal/ptest/

echo "== transition-table freshness gate (goldens vs compiled tables)"
go run ./cmd/tables -check-transition-goldens

echo "== fuzz targets (seed-corpus mode: f.Add seeds + testdata/fuzz)"
go test -run 'FuzzTraceBinaryRoundTrip|FuzzTraceTextDecode' ./internal/trace/
go test -run 'FuzzWorkloadReplay' ./internal/workload/
go test -run 'FuzzRunFileDecode' ./internal/mcheck/

echo "== generator + spin goldens, blocking-vs-direct and SpinOp-vs-read-loop differential gates"
go test -run 'TestGeneratorGoldens|TestDirectMatchesShim' ./internal/workload/
go test -run 'TestSpinOpMatchesReadLoop|TestSpinOpLivelockFoundAtOnce' ./internal/sim/
go test -run 'TestSpinGoldens' ./internal/simrun/

echo "== steady-state allocation gate (0 allocs/op in the sim hot loop, direct and blocking)"
go test -run 'TestSimSteadyStateAllocs|TestBlockingSteadyStateAllocs' .

echo "== benchmark-regression gate"
if [ -f BENCH_mcheck.json ]; then
	go run ./cmd/mcheck -bench-json BENCH_mcheck.json -bench-gate 0.5
else
	echo "no BENCH_mcheck.json baseline; skipping (create one with: go run ./cmd/mcheck -bench-json BENCH_mcheck.json)"
fi

echo "== mcheck kill-and-resume smoke + deep-check gate"
mctmp=$(mktemp -d)
go build -o "$mctmp/mcheck" ./cmd/mcheck

# SIGKILL a checkpointing run mid-exploration; the resumed run's -out
# summary must be byte-identical to an uninterrupted run's.
mcargs="-protocol bitar -procs 3 -blocks 2 -words 2 -depth 6 -workers 2 -mem-budget 6291456 -nospeedup -json"
"$mctmp/mcheck" $mcargs -out "$mctmp/full.json" >/dev/null
"$mctmp/mcheck" $mcargs -checkpoint "$mctmp/ck" -out "$mctmp/resumed.json" >/dev/null 2>&1 &
mcpid=$!
i=0
while [ ! -f "$mctmp/ck/MANIFEST.json" ] && [ "$i" -lt 200 ]; do
	sleep 0.05
	i=$((i + 1))
done
kill -9 "$mcpid" 2>/dev/null || true
wait "$mcpid" 2>/dev/null || true
"$mctmp/mcheck" $mcargs -checkpoint "$mctmp/ck" -resume -out "$mctmp/resumed.json" >/dev/null
cmp "$mctmp/full.json" "$mctmp/resumed.json"
echo "mcheck: resumed run byte-identical after SIGKILL"

# The pinned disk-backed exhaustive check: bitar at p=4 (symmetry +
# POR) under a 256 KiB visited-set budget — far below the ~1 MiB the
# visited set compresses to on disk, so exploration provably ran
# disk-backed. Verdict, states, and transitions must reproduce the
# committed artifact byte for byte.
if [ -f DEEP_mcheck.json ]; then
	grep -q '"exhausted": true' DEEP_mcheck.json
	"$mctmp/mcheck" -protocol bitar -procs 4 -blocks 2 -words 2 -depth 14 -workers 2 \
		-por -mem-budget 262144 -nospeedup -json -out "$mctmp/deep.json" >/dev/null
	cmp DEEP_mcheck.json "$mctmp/deep.json"
	echo "mcheck: bitar p4 exhaustive (disk-backed) matches pinned DEEP_mcheck.json"
else
	echo "no DEEP_mcheck.json artifact; skipping (create one with the same mcheck command plus -out DEEP_mcheck.json)"
fi
rm -rf "$mctmp"

echo "== sim-engine benchmark gate (direct-execution ops/s)"
if [ -f BENCH_sim.json ]; then
	go run ./cmd/cachesim -bench-json BENCH_sim.json -bench-gate 0.7
else
	echo "no BENCH_sim.json baseline; skipping (create one with: go run ./cmd/cachesim -bench-json BENCH_sim.json)"
fi

echo "== two-tier Aquarius benchmark gate (cycles + broadcast fraction exact, ops/s)"
if [ -f BENCH_aquarius.json ]; then
	go run ./cmd/cachesim -bench-aquarius BENCH_aquarius.json -bench-gate 0.7
else
	echo "no BENCH_aquarius.json baseline; skipping (create one with: go run ./cmd/cachesim -bench-aquarius BENCH_aquarius.json)"
fi

echo "== artifact gate (tables/experiments/figures manifest)"
if [ -f ARTIFACTS.json ]; then
	go run ./cmd/tables -gate ARTIFACTS.json
else
	echo "no ARTIFACTS.json baseline; skipping (create one with: go run ./cmd/tables -json ARTIFACTS.json)"
fi

echo "== cachesyncd smoke (start, /healthz, simulate, check, pprof, graceful stop)"
smoketmp=$(mktemp -d)
trap 'rm -rf "$smoketmp"' EXIT
go build -o "$smoketmp/cachesyncd" ./cmd/cachesyncd
go build -o "$smoketmp/loadgen" ./cmd/loadgen
"$smoketmp/cachesyncd" -addr 127.0.0.1:0 -portfile "$smoketmp/port" -pprof >"$smoketmp/daemon.log" 2>&1 &
dpid=$!
if ! "$smoketmp/loadgen" -portfile "$smoketmp/port" -smoke -expect-pprof; then
	echo "cachesyncd smoke failed; daemon log:" >&2
	cat "$smoketmp/daemon.log" >&2
	kill "$dpid" 2>/dev/null || true
	exit 1
fi
kill -TERM "$dpid"
if ! wait "$dpid"; then
	echo "cachesyncd did not exit cleanly on SIGTERM; daemon log:" >&2
	cat "$smoketmp/daemon.log" >&2
	exit 1
fi
echo "cachesyncd: clean start/probe/drain/stop"

echo "== serving benchmark gate (open-loop load + overload shedding)"
if [ -f BENCH_serve.json ]; then
	go run ./cmd/loadgen -selfhost -workers 2 -queue 8 -rate 25 -duration 2s \
		-require-shed -out BENCH_serve.json -gate 0.3
else
	echo "no BENCH_serve.json baseline; skipping (create one with: go run ./cmd/loadgen -selfhost -workers 2 -queue 8 -rate 25 -duration 3s -require-shed -out BENCH_serve.json -update)"
fi

echo "== cluster benchmark gate (3-replica fleet, artifact exchange, chaos kill)"
if [ -f BENCH_cluster.json ]; then
	go build -o "$smoketmp/cachesyncc" ./cmd/cachesyncc
	fleet="$smoketmp/fleet"
	"$smoketmp/cachesyncc" -replicas 3 -workers 1 -queue 16 -dir "$fleet" \
		-addr 127.0.0.1:0 -portfile "$smoketmp/ccport" >"$smoketmp/cc.log" 2>&1 &
	cpid=$!
	if ! "$smoketmp/loadgen" -portfile "$smoketmp/ccport" -rate 60 -duration 2s \
		-warmup 500ms -overload=false \
		-chaos-kill "$fleet/r1.pid" -chaos-at 500ms -chaos-recover \
		-out BENCH_cluster.json -gate 0.3; then
		echo "cluster benchmark failed; coordinator log:" >&2
		cat "$smoketmp/cc.log" >&2
		kill "$cpid" 2>/dev/null || true
		exit 1
	fi
	kill -TERM "$cpid"
	if ! wait "$cpid"; then
		echo "cachesyncc did not exit cleanly on SIGTERM; log:" >&2
		cat "$smoketmp/cc.log" >&2
		exit 1
	fi
	echo "cachesyncc: fleet served through a replica kill, respawn, and re-admission"
else
	echo "no BENCH_cluster.json baseline; skipping (create one with the same command plus -update)"
fi

echo "verify: OK"
