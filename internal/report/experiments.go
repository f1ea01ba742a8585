package report

import (
	"fmt"

	"cachesync/internal/addr"
	"cachesync/internal/aquarius"
	"cachesync/internal/cache"
	"cachesync/internal/protocol"
	"cachesync/internal/protocol/all"
	"cachesync/internal/schedqueue"
	"cachesync/internal/sim"
	"cachesync/internal/stats"
	"cachesync/internal/syncprim"
	"cachesync/internal/workload"
)

// rig builds a machine for an experiment.
func rig(protoName string, procs, ways int, unitMode bool, geom addr.Geometry) (*sim.System, workload.Layout) {
	p := protocol.MustNew(protoName)
	cfg := sim.DefaultConfig(p)
	cfg.Procs = procs
	cfg.Geometry = geom
	if p.Features().OneWordBlocks {
		cfg.Geometry = addr.MustGeometry(1, 1)
	}
	cfg.Cache = cache.Config{Sets: 1, Ways: ways, UnitMode: unitMode}
	s := sim.New(cfg)
	return s, workload.Layout{G: s.Geometry()}
}

var g4 = addr.MustGeometry(4, 4)

// mustRun runs hand-written blocking scenario workloads.
func mustRun(s *sim.System, ws []func(*sim.Proc)) {
	if err := s.Run(ws); err != nil {
		panic(fmt.Sprintf("report: experiment run failed: %v", err))
	}
}

// mustRunPrograms runs a generator's programs.
func mustRunPrograms(s *sim.System, progs []sim.Program) {
	if err := s.RunPrograms(progs); err != nil {
		panic(fmt.Sprintf("report: experiment run failed: %v", err))
	}
}

func perOp(total int64, ops int64) string { return stats.Ratio(total, ops) }

// E1LockCost quantifies Section E.3's zero-time locking claim: bus
// transactions and cycles per lock acquire/release pair, cache-state
// locking versus test-and-set spinning.
func E1LockCost() *stats.Table {
	t := stats.NewTable("E1. Cost of locking (Section E.3): per acquire/release pair",
		"protocol", "scheme", "bus txns/pair", "bus cycles/pair", "mean acquire latency")
	const procs, iters = 4, 40
	cases := []struct {
		proto  string
		scheme syncprim.Scheme
	}{
		{"bitar", syncprim.CacheLock},
		{"bitar", syncprim.TTAS},
		{"illinois", syncprim.TTAS},
		{"illinois", syncprim.TAS},
		{"goodman", syncprim.TTAS},
		{"synapse", syncprim.TTAS},
	}
	for _, c := range cases {
		s, l := rig(c.proto, procs, 64, false, g4)
		w := workload.LockContention{Locks: 1, Iters: iters, HoldCycles: 20, ThinkCycles: 10,
			CSWrites: 2, Scheme: c.scheme, Seed: 17}
		mustRunPrograms(s, w.Programs(l, procs))
		pairs := int64(procs * iters)
		txns := s.Bus.Counts.Total("bus.")
		cycles := s.Counts.Get("bus.cycles")
		lat := "n/a"
		if c.scheme == syncprim.CacheLock {
			lat = fmt.Sprintf("%.1f", s.LockLatency.Mean())
		}
		t.AddRow(c.proto, c.scheme.String(), perOp(txns, pairs), perOp(cycles, pairs), lat)
	}
	return t
}

// E2BusyWait quantifies Section E.4's first purpose — eliminating
// unsuccessful retries from the bus — across contender counts.
func E2BusyWait() *stats.Table {
	t := stats.NewTable("E2. Busy wait (Section E.4): lock-related bus transactions per acquisition",
		"contenders", "bitar cache-lock", "illinois ttas", "illinois tas", "rudolph ttas")
	for _, procs := range []int{2, 4, 8} {
		row := []string{fmt.Sprintf("%d", procs)}
		for _, c := range []struct {
			proto  string
			scheme syncprim.Scheme
		}{
			{"bitar", syncprim.CacheLock},
			{"illinois", syncprim.TTAS},
			{"illinois", syncprim.TAS},
			{"rudolph", syncprim.TTAS},
		} {
			s, l := rig(c.proto, procs, 64, false, g4)
			w := workload.LockContention{Locks: 1, Iters: 20, HoldCycles: 40,
				Scheme: c.scheme, Seed: 23}
			mustRunPrograms(s, w.Programs(l, procs))
			acq := int64(procs * 20)
			// Lock-related traffic: everything except the (absent)
			// data traffic — these workloads only touch the lock.
			txns := s.Bus.Counts.Total("bus.")
			row = append(row, perOp(txns, acq))
		}
		t.AddRow(row...)
	}
	return t
}

// E3SharedData is Section D.2's analysis: write-in versus
// write-through (update) for actively shared data, sweeping the
// number of writes per lock hold ("inappropriate for an atom whose
// blocks are written more than a few times while the atom is
// locked").
func E3SharedData() *stats.Table {
	t := stats.NewTable("E3. Shared data, write-in vs write-through (Section D.2): bus cycles per item passed",
		"writes/hold", "bitar (write-in)", "dragon (update)", "firefly (update)", "writethrough")
	for _, n := range []int{1, 2, 4, 8, 16} {
		row := []string{fmt.Sprintf("%d", n)}
		for _, proto := range []string{"bitar", "dragon", "firefly", "writethrough"} {
			s, l := rig(proto, 2, 64, false, g4)
			scheme := syncprim.SchemeFor(s.Protocol())
			w := workload.ProducerConsumer{Items: 25, WritesPerItem: n, Scheme: scheme}
			mustRunPrograms(s, w.Programs(l, 2))
			row = append(row, perOp(s.Counts.Get("bus.cycles"), 25))
		}
		t.AddRow(row...)
	}
	return t
}

// E4TransferUnits is Section D.3: internal fragmentation under
// write-in, with and without sub-block transfer units.
func E4TransferUnits() *stats.Table {
	t := stats.NewTable("E4. Transfer units (Section D.3): bus words moved, 2-word atom in a block",
		"block words", "whole-block transfer", "2-word transfer units", "savings")
	for _, bw := range []int{2, 4, 8, 16} {
		var words [2]int64
		for i, unitMode := range []bool{false, true} {
			unit := bw
			if unitMode {
				unit = 2
			}
			s, l := rig("bitar", 4, 64, unitMode, addr.MustGeometry(bw, unit))
			w := workload.LockContention{Locks: 1, Iters: 25, HoldCycles: 5, CSWrites: 1,
				Scheme: syncprim.CacheLock, Seed: 29}
			mustRunPrograms(s, w.Programs(l, 4))
			words[i] = s.Counts.Get("bus.words")
		}
		saving := "n/a"
		if words[0] > 0 {
			saving = stats.Pct(words[0]-words[1], words[0])
		}
		t.AddRow(fmt.Sprintf("%d", bw), fmt.Sprintf("%d", words[0]), fmt.Sprintf("%d", words[1]), saving)
	}
	return t
}

// E5InvalidateSignal is Feature 4: gaining write privilege with a
// one-cycle invalidation instead of an invalidating word write. The
// paper argues the fractional increase in bus traffic without the
// signal "appears to be much less than 1/n" for n-word blocks: the
// invalidation write-through moves one word against the n-word block
// transfers that dominate the traffic. Measured in bus words over a
// workload of block fetches with occasional writes to shared blocks.
func E5InvalidateSignal() *stats.Table {
	t := stats.NewTable("E5. Bus invalidate signal (Feature 4): bus words, fetch-dominated workload",
		"block words n", "goodman (write-through inv)", "synapse (1-cycle inv)", "delta", "1/n bound")
	for _, bw := range []int{2, 4, 8, 16} {
		var words [2]int64
		for i, proto := range []string{"goodman", "synapse"} {
			s, l := rig(proto, 2, 8, false, addr.MustGeometry(bw, bw))
			// A sweep of read misses (block transfers) with one shared
			// write hit per eight fetches — the invalidation events.
			ws := []func(*sim.Proc){
				func(p *sim.Proc) {
					for k := 0; k < 160; k++ {
						p.Read(l.G.Base(l.SharedBlock(k % 24)))
						if k%8 == 0 {
							p.Read(l.G.Base(l.SharedBlock(100)))
							p.Write(l.G.Base(l.SharedBlock(100)), uint64(k))
						}
					}
				},
				func(p *sim.Proc) {
					for k := 0; k < 160; k++ {
						p.Read(l.G.Base(l.SharedBlock(100))) // keep the block shared
						p.Compute(9)
					}
				},
			}
			mustRun(s, ws)
			words[i] = s.Counts.Get("bus.words")
		}
		delta := "n/a"
		if words[1] > 0 {
			delta = stats.Pct(words[0]-words[1], words[1])
		}
		t.AddRow(fmt.Sprintf("%d", bw), fmt.Sprintf("%d", words[0]), fmt.Sprintf("%d", words[1]),
			delta, stats.Pct(1, int64(bw)))
	}
	return t
}

// E6ReadForWrite is Feature 5: fetching unshared data for write
// privilege on a read miss, dynamic (hit line) and static (compiler)
// variants against a protocol without the feature.
func E6ReadForWrite() *stats.Table {
	t := stats.NewTable("E6. Fetch unshared data for write privilege (Feature 5): private read-then-write sweeps",
		"protocol", "variant", "bus txns", "bus cycles", "upgrades paid")
	cases := []struct {
		proto   string
		static  bool
		variant string
	}{
		{"goodman", false, "absent"},
		{"illinois", false, "dynamic (D)"},
		{"bitar", false, "dynamic (D)"},
		{"yen", true, "static (S)"},
		{"berkeley", true, "static (S)"},
		{"yen", false, "static unused"},
	}
	for _, c := range cases {
		s, l := rig(c.proto, 2, 128, false, g4)
		w := workload.PrivateRuns{Blocks: 32, Sweeps: 2, WriteBack: 1.0, Static: c.static, Seed: 31}
		mustRunPrograms(s, w.Programs(l, 2))
		t.AddRow(c.proto, c.variant,
			fmt.Sprintf("%d", s.Bus.Counts.Total("bus.")),
			fmt.Sprintf("%d", s.Counts.Get("bus.cycles")),
			fmt.Sprintf("%d", s.Bus.Counts.Get("bus.upgrade")+s.Bus.Counts.Get("bus.writeword")))
	}
	return t
}

// E7SourcePolicy is Feature 8: who supplies a read-shared block —
// arbitrated multiple sources (Illinois), single source with memory
// fallback (Berkeley), or last-fetcher-becomes-source (the paper).
func E7SourcePolicy() *stats.Table {
	t := stats.NewTable("E7. Source policy for read-shared blocks (Feature 8)",
		"protocol", "policy", "bus cycles", "memory supplies", "cache supplies")
	for _, proto := range []string{"illinois", "berkeley", "bitar"} {
		s, l := rig(proto, 4, 8, false, g4)
		// All processors repeatedly read a set of shared blocks larger
		// than one cache's capacity, forcing purges and re-fetches.
		ws := make([]func(*sim.Proc), 4)
		for i := range ws {
			i := i
			ws[i] = func(p *sim.Proc) {
				for k := 0; k < 60; k++ {
					p.Read(l.G.Base(l.SharedBlock((k + i*3) % 12)))
					p.Compute(3)
				}
			}
		}
		mustRun(s, ws)
		agg := s.Stats()
		t.AddRow(proto, s.Protocol().Features().SourcePolicy,
			fmt.Sprintf("%d", s.Counts.Get("bus.cycles")),
			fmt.Sprintf("%d", agg.Get("mem.supply")),
			fmt.Sprintf("%d", agg.Get("snoop.supply")))
	}
	return t
}

// E8WriteNoFetch is Feature 9: saving process state without fetching
// the blocks about to be overwritten.
func E8WriteNoFetch() *stats.Table {
	t := stats.NewTable("E8. Writing without fetch on write miss (Feature 9): process-switch state save",
		"protocol", "feature", "bus cycles/switch", "fetches paid")
	for _, proto := range []string{"bitar", "berkeley", "illinois", "goodman"} {
		s, l := rig(proto, 2, 64, false, g4)
		const switches, blocks = 10, 4
		w := workload.StateSave{Switches: switches, StateBlocks: blocks}
		mustRunPrograms(s, w.Programs(l, 2))
		fetches := s.Bus.Counts.Get("bus.read") + s.Bus.Counts.Get("bus.readx")
		t.AddRow(proto, check(s.Protocol().Features().WriteNoFetch),
			perOp(s.Counts.Get("bus.cycles"), switches*2),
			fmt.Sprintf("%d", fetches))
	}
	return t
}

// E9Protocols is the Archibald-Baer-style cross-protocol comparison
// the paper looks forward to (Section G.2): one mixed workload over
// every implemented protocol.
func E9Protocols() *stats.Table {
	t := stats.NewTable("E9. Cross-protocol comparison: mixed workload (35% writes, 30% shared)",
		"protocol", "policy", "total cycles", "bus cycles", "bus words", "invalidations", "updates", "proc idle")
	for _, name := range all.Everything {
		s, l := rig(name, 4, 32, false, g4)
		w := workload.Mixed{Ops: 400, SharedBlocks: 8, PrivBlocks: 24,
			SharedFrac: 0.3, WriteFrac: 0.35, Seed: 37}
		mustRunPrograms(s, w.Programs(l, 4))
		agg := s.Stats()
		// Section D.1: write-in reduces "bus traffic and concomitant
		// processor idle time" — report the idle fraction directly.
		idle := stats.Pct(agg.Get("proc.stall-cycles"), 4*s.Clock())
		t.AddRow(name, string(s.Protocol().Features().Policy),
			fmt.Sprintf("%d", s.Clock()),
			fmt.Sprintf("%d", s.Counts.Get("bus.cycles")),
			fmt.Sprintf("%d", s.Counts.Get("bus.words")),
			fmt.Sprintf("%d", agg.Get("snoop.invalidated")),
			fmt.Sprintf("%d", agg.Get("snoop.update")),
			idle)
	}
	return t
}

// E10RudolphSegall compares the two efficient-busy-wait designs the
// paper discusses (Section E.4): Rudolph-Segall's update-invalid-copy
// scheme versus the lock state plus busy-wait register.
func E10RudolphSegall() *stats.Table {
	t := stats.NewTable("E10. Efficient busy wait (Section E.4): lock handoff chains",
		"scheme", "bus txns/acquisition", "bus cycles/acquisition", "total cycles")
	const procs, iters = 4, 25
	cases := []struct {
		label  string
		proto  string
		scheme syncprim.Scheme
	}{
		{"bitar lock state + busy-wait register", "bitar", syncprim.CacheLock},
		{"rudolph-segall dynamic WT/WI", "rudolph", syncprim.TTAS},
		{"illinois ttas (no busy-wait support)", "illinois", syncprim.TTAS},
	}
	for _, c := range cases {
		s, l := rig(c.proto, procs, 64, false, g4)
		w := workload.LockContention{Locks: 1, Iters: iters, HoldCycles: 30,
			Scheme: c.scheme, Seed: 41}
		mustRunPrograms(s, w.Programs(l, procs))
		acq := int64(procs * iters)
		t.AddRow(c.label,
			perOp(s.Bus.Counts.Total("bus."), acq),
			perOp(s.Counts.Get("bus.cycles"), acq),
			fmt.Sprintf("%d", s.Clock()))
	}
	return t
}

// E11Directory is Feature 3's question: is the frequency of write
// hits to clean blocks — the events that update dirty status in the
// bus directory — high enough to warrant non-identical directories?
// Bitar 1985 estimates 0.2%-1.2% of references from Smith's data.
func E11Directory() *stats.Table {
	t := stats.NewTable("E11. Dirty-status update interference (Feature 3): write hits to clean blocks",
		"protocol", "references", "write-hit-clean", "frequency", "paper estimate")
	for _, name := range []string{"bitar", "illinois", "berkeley", "goodman"} {
		s, l := rig(name, 4, 64, false, g4)
		// Mostly re-referencing a resident working set: misses are
		// rare, writes mostly hit already-dirty blocks.
		w := workload.Mixed{Ops: 2000, SharedBlocks: 4, PrivBlocks: 12,
			SharedFrac: 0.1, WriteFrac: 0.30, Seed: 43}
		mustRunPrograms(s, w.Programs(l, 4))
		agg := s.Stats()
		refs := agg.Total("proc.hit.") + agg.Total("proc.miss.") + agg.Total("proc.busop.")
		whc := agg.Get("dir.write-hit-clean")
		t.AddRow(name, fmt.Sprintf("%d", refs), fmt.Sprintf("%d", whc),
			stats.Pct(whc, refs), "0.2%-1.2%")
	}
	return t
}

// E12RMWMethods compares the four atomic read-modify-write methods of
// Feature 6 under contention.
func E12RMWMethods() *stats.Table {
	t := stats.NewTable("E12. Atomic read-modify-write methods (Feature 6): contended counter",
		"method", "protocol", "bus cycles/op", "aborts", "total cycles")
	const procs, iters = 4, 30
	cases := []struct {
		m     syncprim.RMWMethod
		proto string
	}{
		{syncprim.MethodMemoryHold, "bitar"},
		{syncprim.MethodCacheHold, "bitar"},
		{syncprim.MethodOptimistic, "bitar"},
		{syncprim.MethodLockState, "bitar"},
		{syncprim.MethodCacheHold, "illinois"},
		{syncprim.MethodOptimistic, "illinois"},
	}
	for _, c := range cases {
		s, l := rig(c.proto, procs, 64, false, g4)
		a := l.G.Base(l.SharedBlock(0))
		ws := make([]func(*sim.Proc), procs)
		for i := range ws {
			ws[i] = func(p *sim.Proc) {
				for k := 0; k < iters; k++ {
					syncprim.AtomicAdd(p, c.m, a, 1)
					p.Compute(8)
				}
			}
		}
		mustRun(s, ws)
		agg := s.Stats()
		t.AddRow(c.m.String(), c.proto,
			perOp(s.Counts.Get("bus.cycles"), int64(procs*iters)),
			fmt.Sprintf("%d", agg.Get("rmw.abort")+agg.Get("sync.optimistic-retry")),
			fmt.Sprintf("%d", s.Clock()))
	}
	return t
}

// E13IO exercises the three I/O transfer kinds of Section E.2.
func E13IO() *stats.Table {
	t := stats.NewTable("E13. I/O transfer (Section E.2)",
		"operation", "bus cmd", "source keeps status", "cached copies after")
	s, l := rig("bitar", 2, 64, false, g4)
	blk := l.SharedBlock(0)
	a := l.G.Base(blk)
	mustRun(s, []func(*sim.Proc){
		func(p *sim.Proc) {
			p.Write(a, 5) // dirty in cache 0
			p.IO(sim.IOOutput, a, nil)
			keeps := s.Caches[0].State(blk)
			t.AddRow("non-paging output", "ioread", check(s.Protocol().IsSource(keeps)),
				s.Protocol().StateName(keeps))
			p.IO(sim.IOPageOut, a, nil)
			t.AddRow("paging out", "readx", "", s.Protocol().StateName(s.Caches[0].State(blk)))
			p.Write(a, 6)
			p.IO(sim.IOInput, a, []uint64{9, 9, 9, 9})
			t.AddRow("input", "iowrite", "", s.Protocol().StateName(s.Caches[0].State(blk)))
		}, nil,
	})
	return t
}

// E14LockPurge exercises Section E.3's purged-lock path: a small-set
// cache evicts a locked block, the lock bit moves to memory, denials
// and reclaim work, and no increment is lost.
func E14LockPurge() *stats.Table {
	t := stats.NewTable("E14. Lock purge to memory (Section E.3)",
		"cache ways", "lock purges", "memory denials asserted", "reclaims", "counter exact")
	for _, ways := range []int{1, 2, 64} {
		s, l := rig("bitar", 3, ways, false, g4)
		lock := l.LockAddr(0)
		const iters = 10
		ws := make([]func(*sim.Proc), 3)
		for i := range ws {
			ws[i] = func(p *sim.Proc) {
				for k := 0; k < iters; k++ {
					v := p.LockRead(lock)
					// Touch enough blocks to evict the locked one in a
					// tiny cache.
					p.Read(l.G.Base(l.PrivateBlock(p.ID(), k%4)))
					p.Read(l.G.Base(l.PrivateBlock(p.ID(), 4+k%4)))
					p.UnlockWrite(lock, v+1)
				}
			}
		}
		mustRun(s, ws)
		var final uint64
		final = s.Mem.ReadWord(lock)
		for _, c := range s.Caches {
			if v, ok := c.ReadWord(lock); ok && c.Protocol().IsDirty(c.State(l.G.BlockOf(lock))) {
				final = v
			}
		}
		t.AddRow(fmt.Sprintf("%d", ways),
			fmt.Sprintf("%d", s.Counts.Get("evict.lockpurge")),
			fmt.Sprintf("%d", s.Stats().Get("snoop.locked-denial")+s.Counts.Get("lock.denied")),
			fmt.Sprintf("%d", s.Counts.Get("lock.reclaim")),
			check(final == 3*iters))
	}
	return t
}

// E15Broadcast is Section A.2's motivation for full broadcast: "the
// operation is entirely distributed and parallel, hence is fast" —
// compared against the Censier-Feautrier directory scheme, whose
// consistency messages are looked up and delivered point-to-point.
func E15Broadcast() *stats.Table {
	t := stats.NewTable("E15. Full broadcast vs partial broadcast (Section A.2): sharing-heavy workload",
		"protocol", "organization", "total cycles", "bus cycles", "directory messages")
	for _, proto := range []string{"bitar", "illinois", "goodman", "censier"} {
		for _, sharers := range []int{2, 8} {
			s, l := rig(proto, sharers, 32, false, g4)
			w := workload.Mixed{Ops: 150, SharedBlocks: 6, PrivBlocks: 8,
				SharedFrac: 0.6, WriteFrac: 0.35, Seed: 47}
			mustRunPrograms(s, w.Programs(l, sharers))
			org := "broadcast"
			if s.Protocol().Features().PartialBroadcast {
				org = "directory"
			}
			t.AddRow(fmt.Sprintf("%s (%d procs)", proto, sharers), org,
				fmt.Sprintf("%d", s.Clock()),
				fmt.Sprintf("%d", s.Counts.Get("bus.cycles")),
				fmt.Sprintf("%d", s.Counts.Get("dir.msgs")))
		}
	}
	return t
}

// E16WorkWhileWaiting is Section E.4's second purpose: "relieve a
// waiting processor of polling the status of a lock, allowing it to
// work while waiting" — lock prefetch with a ready section against
// blocking acquisition, sweeping the ready-section length.
func E16WorkWhileWaiting() *stats.Table {
	t := stats.NewTable("E16. Work while waiting (Section E.4): ready section overlapping an expected wait",
		"ready section (cycles)", "hold (cycles)", "blocked wait/acq", "prefetch wait/acq", "wait hidden")
	const iters = 20
	// One holder occupies the lock for `hold` cycles; the other
	// processor has `ready` cycles of independent work per iteration.
	// Prefetching before the ready section lets the busy-wait
	// register absorb the wait ("the offset depending on the expected
	// wait time").
	for _, cfg := range []struct{ ready, hold int64 }{
		{0, 100}, {50, 100}, {100, 100}, {100, 40},
	} {
		var waits [2]int64
		for i, usePrefetch := range []bool{false, true} {
			s, l := rig("bitar", 2, 64, false, g4)
			lock := l.LockAddr(0)
			var waited int64
			ws := []func(*sim.Proc){
				func(p *sim.Proc) {
					for k := 0; k < iters; k++ {
						v := p.LockRead(lock)
						p.Compute(cfg.hold)
						p.UnlockWrite(lock, v+1)
						p.Compute(10)
					}
				},
				func(p *sim.Proc) {
					for k := 0; k < iters; k++ {
						if usePrefetch {
							p.LockPrefetch(lock)
							p.Compute(cfg.ready)
							start := p.Now()
							v := p.LockWait(lock)
							waited += p.Now() - start
							p.UnlockWrite(lock, v+1)
						} else {
							p.Compute(cfg.ready)
							start := p.Now()
							v := p.LockRead(lock)
							waited += p.Now() - start
							p.UnlockWrite(lock, v+1)
						}
					}
				},
			}
			mustRun(s, ws)
			waits[i] = waited / iters
		}
		hidden := "n/a"
		if waits[0] > 0 {
			hidden = stats.Pct(waits[0]-waits[1], waits[0])
		}
		t.AddRow(fmt.Sprintf("%d", cfg.ready), fmt.Sprintf("%d", cfg.hold),
			fmt.Sprintf("%d", waits[0]), fmt.Sprintf("%d", waits[1]), hidden)
	}
	return t
}

// E17SleepWait is Section B.2's second reason for busy wait: software
// sleep wait is built on busy-wait-protected queues, and the global
// ready queue is the high-contention atom whose manipulation costs
// "several block fetches, say three or four, per queue" — so the
// efficiency of busy-wait locking governs scheduler throughput.
func E17SleepWait() *stats.Table {
	t := stats.NewTable("E17. Software sleep wait (Section B.2): global ready-queue scheduler",
		"protocol", "scheme", "total cycles", "cycles/dispatch", "queue-lock bus txns")
	const workers, processes, dispatches = 4, 8, 12
	cases := []struct {
		proto  string
		scheme syncprim.Scheme
	}{
		{"bitar", syncprim.CacheLock},
		{"bitar", syncprim.TTAS},
		{"illinois", syncprim.TTAS},
		{"illinois", syncprim.TAS},
	}
	for _, c := range cases {
		s, l := rig(c.proto, workers, 64, false, g4)
		sched := schedqueue.NewScheduler(schedqueue.SchedulerConfig{
			Geometry:  l.G,
			LockBlock: 0, DescBlock: 2,
			Capacity:  processes + 2,
			StateBase: 200, StateBlocks: 2,
			Quantum: 30,
			Scheme:  c.scheme,
		})
		ws := make([]func(*sim.Proc), workers)
		ws[0] = func(p *sim.Proc) {
			sched.Seed(p, processes)
			sched.Worker(dispatches)(p)
		}
		for i := 1; i < workers; i++ {
			ws[i] = func(p *sim.Proc) {
				p.Compute(80)
				sched.Worker(dispatches)(p)
			}
		}
		mustRun(s, ws)
		total := int64(workers * dispatches)
		t.AddRow(c.proto, c.scheme.String(),
			fmt.Sprintf("%d", s.Clock()),
			perOp(s.Clock(), total),
			fmt.Sprintf("%d", s.Bus.Counts.Total("bus.")))
	}
	return t
}

// E18DualBus is Section A.2's observation that broadcast appears in
// single- and dual-bus systems: the same workload on one block-
// interleaved bus versus two, sweeping processor count.
func E18DualBus() *stats.Table {
	t := stats.NewTable("E18. Single vs dual bus (Section A.2): mixed workload",
		"processors", "1-bus total cycles", "2-bus total cycles", "speedup")
	for _, procs := range []int{2, 4, 8} {
		var clocks [2]int64
		for i, buses := range []int{1, 2} {
			p := protocol.MustNew("bitar")
			cfg := sim.DefaultConfig(p)
			cfg.Procs = procs
			cfg.NumBuses = buses
			cfg.Cache = cache.Config{Sets: 1, Ways: 16}
			s := sim.New(cfg)
			l := workload.Layout{G: s.Geometry()}
			w := workload.Mixed{Ops: 300, SharedBlocks: 8, PrivBlocks: 24,
				SharedFrac: 0.3, WriteFrac: 0.35, Seed: 59}
			mustRunPrograms(s, w.Programs(l, procs))
			clocks[i] = s.Clock()
		}
		t.AddRow(fmt.Sprintf("%d", procs),
			fmt.Sprintf("%d", clocks[0]), fmt.Sprintf("%d", clocks[1]),
			stats.Ratio(clocks[0], clocks[1]))
	}
	return t
}

// E19Aquarius is Figure 11's design rationale (Section G.1): putting
// the synchronization data on its own full-broadcast bus and the
// instructions/non-synchronization data on a crossbar, versus pushing
// everything through one broadcast bus.
func E19Aquarius() *stats.Table {
	t := stats.NewTable("E19. Aquarius two-tier split (Figure 11, Section G.1): Prolog-style workload",
		"organization", "total cycles", "sync-bus cycles", "crossbar accesses")
	const procs, rounds = 4, 25

	// Two-tier: locks/queues on the sync bus, data via the crossbar.
	a := aquarius.New(aquarius.DefaultConfig(procs))
	l := workload.Layout{G: a.Sync.Geometry()}
	twoTier := make([]func(*sim.Proc), procs)
	for i := range twoTier {
		i := i
		twoTier[i] = func(p *sim.Proc) {
			for k := 0; k < rounds; k++ {
				for pc := 0; pc < 4; pc++ {
					a.InstrFetch(p, addr.Addr(4096+i*64+pc))
				}
				a.DataWrite(p, addr.Addr(8192+i*rounds+k), uint64(k))
				lock := l.LockAddr(2 + (i+k)%procs)
				syncprim.Acquire(p, syncprim.CacheLock, lock)
				p.Write(l.G.Base(l.SharedBlock(1+(i+k)%procs)), uint64(k))
				syncprim.Release(p, syncprim.CacheLock, lock)
			}
		}
	}
	mustRun(a.Sync, twoTier)
	t.AddRow("two-tier (sync bus + crossbar)",
		fmt.Sprintf("%d", a.Sync.Clock()),
		fmt.Sprintf("%d", a.Sync.Counts.Get("bus.cycles")),
		fmt.Sprintf("%d", a.Counts.Get("xbar.access")))

	// One-tier: the same references all through the broadcast bus.
	s1, l1 := rig("bitar", procs, 128, false, g4)
	oneTier := make([]func(*sim.Proc), procs)
	for i := range oneTier {
		i := i
		oneTier[i] = func(p *sim.Proc) {
			for k := 0; k < rounds; k++ {
				for pc := 0; pc < 4; pc++ {
					p.Read(l1.G.Base(l1.PrivateBlock(i, pc)))
				}
				p.Write(l1.G.Base(l1.PrivateBlock(i, 64+(k%32))), uint64(k))
				lock := l1.LockAddr(2 + (i+k)%procs)
				syncprim.Acquire(p, syncprim.CacheLock, lock)
				p.Write(l1.G.Base(l1.SharedBlock(1+(i+k)%procs)), uint64(k))
				syncprim.Release(p, syncprim.CacheLock, lock)
			}
		}
	}
	mustRun(s1, oneTier)
	t.AddRow("one-tier (everything on the broadcast bus)",
		fmt.Sprintf("%d", s1.Clock()),
		fmt.Sprintf("%d", s1.Counts.Get("bus.cycles")),
		"0")
	return t
}

// AllExperiments runs every experiment table in order.
func AllExperiments() []*stats.Table {
	return []*stats.Table{
		E1LockCost(), E2BusyWait(), E3SharedData(), E4TransferUnits(),
		E5InvalidateSignal(), E6ReadForWrite(), E7SourcePolicy(),
		E8WriteNoFetch(), E9Protocols(), E10RudolphSegall(),
		E11Directory(), E12RMWMethods(), E13IO(), E14LockPurge(),
		E15Broadcast(), E16WorkWhileWaiting(), E17SleepWait(),
		E18DualBus(), E19Aquarius(), E20BroadcastFraction(),
		E21Disaggregated(),
	}
}

// E20BroadcastFraction is Section G's quantitative core: once every
// reference carries a routing class, only the synchronization
// references need the full-broadcast bus — the crossbar absorbs the
// rest. The same classified programs run on the routed two-tier
// machine and, unchanged, on a one-bus baseline (classes are inert
// without a lower tier), so the cycle columns compare matched
// reference streams.
func E20BroadcastFraction() *stats.Table {
	t := stats.NewTable("E20. Broadcast fraction on the two-tier machine (Section G): classified workloads vs one-bus baseline",
		"workload", "references", "broadcast refs", "fraction", "two-tier cycles", "one-bus cycles")
	const procs = 4
	cases := []struct {
		name string
		gen  interface {
			Programs(workload.Layout, int) []sim.Program
		}
	}{
		{"mixed", workload.Mixed{Ops: 300, SharedBlocks: 8, PrivBlocks: 24,
			SharedFrac: 0.3, WriteFrac: 0.35, Seed: 59}},
		{"lockdata", workload.LockedData{Locks: 2, Iters: 15, Records: 6,
			Instrs: 4, Think: 10, Scheme: syncprim.CacheLock, Seed: 61}},
	}
	for _, c := range cases {
		cfg := aquarius.DefaultConfig(procs)
		cfg.Routed = true
		a := aquarius.New(cfg)
		l := workload.Layout{G: a.Sync.Geometry()}
		mustRunPrograms(a.Sync, c.gen.Programs(l, procs))
		syncRefs, total := a.BroadcastFraction()

		s1 := sim.New(aquarius.DefaultConfig(procs).Sync)
		l1 := workload.Layout{G: s1.Geometry()}
		mustRunPrograms(s1, c.gen.Programs(l1, procs))

		t.AddRow(c.name,
			fmt.Sprintf("%d", total),
			fmt.Sprintf("%d", syncRefs),
			fmt.Sprintf("%.1f%%", 100*float64(syncRefs)/float64(total)),
			fmt.Sprintf("%d", a.Clock()),
			fmt.Sprintf("%d", s1.Clock()))
	}
	return t
}

// E21Disaggregated is the Soul/GCS stretch: the crossbar tier moves
// behind a latency- and occupancy-costed remote link, and lock
// hand-off degrades as the link gets slower — the data a critical
// section touches now crosses the link even though the lock word
// itself stays on the local broadcast bus.
func E21Disaggregated() *stats.Table {
	t := stats.NewTable("E21. Disaggregated lower tier (Soul/GCS): lock hand-off vs remote-link latency",
		"remote cycles", "scheme", "total cycles", "mean lock acquire", "spin retries", "remote waits")
	const procs = 4
	schemes := []struct {
		name string
		s    syncprim.Scheme
	}{
		{"cachelock", syncprim.CacheLock},
		{"ttas", syncprim.TTAS},
	}
	for _, remote := range []int{0, 16, 64, 256} {
		for _, sch := range schemes {
			cfg := aquarius.DefaultConfig(procs)
			cfg.Routed = true
			cfg.RemoteCycles = remote
			a := aquarius.New(cfg)
			l := workload.Layout{G: a.Sync.Geometry()}
			ld := workload.LockedData{Locks: 1, Iters: 15, Records: 6,
				Instrs: 4, Think: 10, Scheme: sch.s, Seed: 61}
			mustRunPrograms(a.Sync, ld.Programs(l, procs))

			mean := "-"
			if a.Sync.LockLatency.Count() > 0 {
				mean = fmt.Sprintf("%.1f", a.Sync.LockLatency.Mean())
			}
			st := a.Stats()
			retries := st.Get("sync.tas-retry") + st.Get("sync.optimistic-retry")
			waits := st.Get("remote.req-wait") + st.Get("remote.resp-wait")
			t.AddRow(fmt.Sprintf("%d", remote), sch.name,
				fmt.Sprintf("%d", a.Clock()), mean,
				fmt.Sprintf("%d", retries), fmt.Sprintf("%d", waits))
		}
	}
	return t
}
