package workload_test

import (
	"fmt"
	"testing"

	"cachesync/internal/aquarius"
	"cachesync/internal/interconnect"
	"cachesync/internal/sim"
	"cachesync/internal/syncprim"
	"cachesync/internal/workload"
)

// classCases enumerates every generator with settings that exercise
// all of its emission paths.
func classCases() map[string]builder {
	return map[string]builder{
		"mixed": workload.Mixed{Ops: 200, SharedBlocks: 8, PrivBlocks: 16,
			SharedFrac: 0.4, WriteFrac: 0.4, Seed: 3},
		"lock": workload.LockContention{Locks: 2, Iters: 10, HoldCycles: 5,
			ThinkCycles: 5, CSWrites: 2, Scheme: syncprim.CacheLock, Seed: 3},
		"pc":          workload.ProducerConsumer{Items: 10, WritesPerItem: 3, Scheme: syncprim.CacheLock},
		"queues":      workload.ServiceQueues{Requests: 8, Scheme: syncprim.CacheLock, Seed: 3},
		"privateruns": workload.PrivateRuns{Blocks: 8, Sweeps: 3, WriteBack: 0.5, Static: true, Seed: 3},
		"statesave":   workload.StateSave{Switches: 6, StateBlocks: 3},
		"lockdata": workload.LockedData{Locks: 2, Iters: 8, Records: 3,
			Instrs: 2, Think: 4, Scheme: syncprim.CacheLock, Seed: 3},
	}
}

// classRecorder wraps a Program and flags any memory reference emitted
// without a routing class.
type classRecorder struct {
	inner sim.Program
	name  string
	bad   *[]string
}

func (r *classRecorder) Next(p *sim.Proc, last sim.Result) (sim.Op, bool) {
	op, ok := r.inner.Next(p, last)
	if ok && op.IsRef() && op.Class() == interconnect.Unclassified {
		*r.bad = append(*r.bad, fmt.Sprintf("%s: proc %d emitted an unclassified reference", r.name, p.ID()))
	}
	return op, ok
}

// TestGeneratorsClassifyEveryReference: every workload generator tags
// every memory reference with a routing class, run directly or through
// blocking closures. The direct run is checked by a recording wrapper;
// the blocking run by the Routed two-tier machine, which rejects
// unclassified references outright.
func TestGeneratorsClassifyEveryReference(t *testing.T) {
	const procs = 4
	for name, w := range classCases() {
		name, w := name, w
		t.Run(name+"/direct", func(t *testing.T) {
			t.Parallel()
			cfg := aquarius.DefaultConfig(procs)
			cfg.Routed = true
			a := aquarius.New(cfg)
			l := workload.Layout{G: a.Sync.Geometry()}
			var bad []string
			progs := w.Programs(l, procs)
			for i := range progs {
				if progs[i] != nil { // idle processors stay nil
					progs[i] = &classRecorder{inner: progs[i], name: name, bad: &bad}
				}
			}
			if err := a.RunPrograms(progs); err != nil {
				t.Fatalf("routed run: %v", err)
			}
			for _, msg := range bad {
				t.Error(msg)
			}
		})
		t.Run(name+"/shim", func(t *testing.T) {
			t.Parallel()
			cfg := aquarius.DefaultConfig(procs)
			cfg.Routed = true
			a := aquarius.New(cfg)
			l := workload.Layout{G: a.Sync.Geometry()}
			if err := a.Run(blocking(w.Programs(l, procs))); err != nil {
				t.Fatalf("routed run: %v", err)
			}
		})
	}
}

// TestBuildMatchesProgramsOnTwoTier extends TestDirectMatchesShim to
// the routed machine: a generator's programs, run as built blocking
// closures or directly, must drive the two-tier system to identical
// clocks and counters.
func TestBuildMatchesProgramsOnTwoTier(t *testing.T) {
	const procs = 4
	for name, w := range classCases() {
		name, w := name, w
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			runOne := func(direct bool) (int64, map[string]int64) {
				cfg := aquarius.DefaultConfig(procs)
				cfg.Routed = true
				a := aquarius.New(cfg)
				l := workload.Layout{G: a.Sync.Geometry()}
				var err error
				if direct {
					err = a.RunPrograms(w.Programs(l, procs))
				} else {
					err = a.Run(blocking(w.Programs(l, procs)))
				}
				if err != nil {
					t.Fatal(err)
				}
				return a.Clock(), a.Stats().Snapshot()
			}
			sc, ss := runOne(false)
			dc, ds := runOne(true)
			if sc != dc {
				t.Errorf("final clock: shim %d, direct %d", sc, dc)
			}
			if len(ss) != len(ds) {
				t.Fatalf("stats size: shim %d, direct %d", len(ss), len(ds))
			}
			for k, v := range ss {
				if ds[k] != v {
					t.Errorf("counter %s: shim %d, direct %d", k, v, ds[k])
				}
			}
		})
	}
}
