package cachesync_test

import (
	"runtime"
	"testing"

	"cachesync"
	"cachesync/internal/sim"
	"cachesync/internal/workload"
)

// blockingWorkloads wraps each program in a blocking closure that
// issues its ops through Proc.Do: the same op stream, delivered through
// Machine.Run's coroutine adapter instead of stepped inline.
func blockingWorkloads(progs []cachesync.Program) []cachesync.Workload {
	ws := make([]cachesync.Workload, len(progs))
	for i, prog := range progs {
		ws[i] = func(p *cachesync.Proc) {
			var r sim.Result
			for {
				op, ok := prog.Next(p, r)
				if !ok {
					return
				}
				r = p.Do(op)
			}
		}
	}
	return ws
}

// mixedRunMallocs runs one mixed p8 simulation and returns the total
// heap allocations it made: on the direct engine (RunPrograms), or with
// blocking set, through blocking workloads on Machine.Run.
func mixedRunMallocs(t *testing.T, ops int, blocking bool) uint64 {
	t.Helper()
	m, err := cachesync.New(cachesync.Config{Protocol: "bitar", Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	ps := workload.Mixed{Ops: ops, SharedBlocks: 8, PrivBlocks: 24,
		SharedFrac: 0.3, WriteFrac: 0.35, Seed: 1}.Programs(m.Layout(), 8)
	run := func() error { return m.RunPrograms(ps) }
	if blocking {
		ws := blockingWorkloads(ps)
		run = func() error { return m.Run(ws) }
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// steadyStateAllocs fails t when the marginal allocations per
// simulated operation between a short and a long mixed run exceed the
// gate's bound.
func steadyStateAllocs(t *testing.T, blocking bool) {
	const (
		procs    = 8
		shortOps = 2_000
		longOps  = 22_000
		perOpMax = 0.01 // marginal allocations per simulated operation
		extraOps = float64(procs * (longOps - shortOps))
	)
	short := mixedRunMallocs(t, shortOps, blocking)
	long := mixedRunMallocs(t, longOps, blocking)
	var marginal float64
	if long > short {
		marginal = float64(long-short) / extraOps
	}
	t.Logf("allocs: short=%d long=%d marginal=%.5f/op", short, long, marginal)
	if marginal > perOpMax {
		t.Fatalf("steady-state allocations: %.5f allocs/op over %d extra ops (limit %.2f) — the hot loop is allocating",
			marginal, int(extraOps), perOpMax)
	}
}

// TestSimSteadyStateAllocs is the allocs-per-op regression gate for
// the direct engine: a run has a fixed setup cost (counter handles,
// pool growth, memory blocks for the touched working set), but the
// per-operation marginal cost must be zero — pooled transactions,
// handle-based counters, and the typed ready queue exist so that the
// hot loop never hits the allocator. Comparing a short and a long run
// isolates the marginal cost from the setup cost.
func TestSimSteadyStateAllocs(t *testing.T) { steadyStateAllocs(t, false) }

// TestBlockingSteadyStateAllocs is the same gate for blocking
// workloads: the coroutine adapter hands each op to the event loop and
// its result back without allocating, so Machine.Run keeps the direct
// engine's zero marginal cost.
func TestBlockingSteadyStateAllocs(t *testing.T) { steadyStateAllocs(t, true) }
