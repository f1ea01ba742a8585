package report

import (
	"fmt"

	"cachesync/internal/addr"
	"cachesync/internal/cache"
	"cachesync/internal/core"
	"cachesync/internal/protocol"
	"cachesync/internal/sim"
	"cachesync/internal/stats"
	"cachesync/internal/syncprim"
	"cachesync/internal/workload"
)

// This file ablates the individual design choices of the paper's
// proposal, one at a time, to measure what each contributes.

// A1WaiterPriority ablates the reserved most-significant arbitration
// priority bit of Section E.4: after an unlock broadcast, do the
// re-arbitrating waiters actually need to outrank ordinary traffic?
func A1WaiterPriority() *stats.Table {
	t := stats.NewTable("A1. Ablation: busy-wait high-priority arbitration bit (Section E.4)",
		"waiter priority", "mean lock latency", "p99 lock latency", "total cycles")
	const procs, iters = 6, 20
	for _, disable := range []bool{false, true} {
		cfg := sim.DefaultConfig(core.Protocol{})
		cfg.Procs = procs
		cfg.NoWaiterPriority = disable
		s := sim.New(cfg)
		l := workload.Layout{G: s.Geometry()}
		ws := make([]func(*sim.Proc), procs)
		for i := range ws {
			i := i
			ws[i] = func(p *sim.Proc) {
				for k := 0; k < iters; k++ {
					if i < procs/2 {
						// Half the processors contend for the lock.
						v := p.LockRead(l.LockAddr(0))
						p.Compute(20)
						p.UnlockWrite(l.LockAddr(0), v+1)
						p.Compute(5)
					} else {
						// The other half floods the bus with ordinary
						// traffic that competes in arbitration.
						for j := 0; j < 4; j++ {
							p.Write(l.G.Base(l.PrivateBlock(i, (k*4+j)%128)), uint64(k))
						}
					}
				}
			}
		}
		if err := s.Run(ws); err != nil {
			panic(err)
		}
		label := "on (paper)"
		if disable {
			label = "off (ablated)"
		}
		t.AddRow(label,
			fmt.Sprintf("%.1f", s.LockLatency.Mean()),
			fmt.Sprintf("%d", s.LockLatency.Percentile(99)),
			fmt.Sprintf("%d", s.Clock()))
	}
	return t
}

// A2ConcurrentFlush ablates Feature 7's premise: flushing during a
// cache-to-cache transfer is free only when bus and memory can absorb
// it concurrently; otherwise each flush adds a memory access to the
// transfer.
func A2ConcurrentFlush() *stats.Table {
	t := stats.NewTable("A2. Ablation: concurrent flush on cache-to-cache transfer (Feature 7)",
		"protocol", "flush policy", "concurrent flush", "bus cycles")
	// Goodman/Illinois flush on transfer (F); the paper's protocol
	// does not (NF,S) and is insensitive to the switch.
	for _, proto := range []string{"goodman", "illinois", "bitar"} {
		for _, concurrent := range []bool{true, false} {
			cfg := sim.DefaultConfig(protocol.MustNew(proto))
			cfg.Procs = 2
			cfg.Timing.ConcurrentFlush = concurrent
			s := sim.New(cfg)
			l := workload.Layout{G: s.Geometry()}
			// Dirty hand-offs: P0 writes a block, P1 reads it, repeat.
			flag := l.LockAddr(0)
			data := l.G.Base(l.SharedBlock(0))
			ws := []func(*sim.Proc){
				func(p *sim.Proc) {
					for k := uint64(1); k <= 30; k++ {
						p.Write(data, k)
						p.Write(flag, k)
						p.Do(sim.SpinOp(flag, 0, true, 4))
					}
				},
				func(p *sim.Proc) {
					for k := uint64(1); k <= 30; k++ {
						p.Do(sim.SpinOp(flag, k, true, 4))
						p.Read(data)
						p.Write(flag, 0)
					}
				},
			}
			if err := s.Run(ws); err != nil {
				panic(err)
			}
			t.AddRow(proto, s.Protocol().Features().FlushOnTransfer,
				fmt.Sprintf("%v", concurrent),
				fmt.Sprintf("%d", s.Counts.Get("bus.cycles")))
		}
	}
	return t
}

// A3SourceRetention ablates Feature 8's LRU half: the paper's
// last-fetcher-becomes-source against a keep-source variant that
// falls back to memory once the single source purges.
func A3SourceRetention() *stats.Table {
	t := stats.NewTable("A3. Ablation: last-fetcher-becomes-source (Feature 8 LRU)",
		"variant", "bus cycles", "memory supplies", "cache supplies")
	for _, proto := range []string{"bitar", "bitar-memsrc"} {
		s, l := rig(proto, 4, 8, false, g4)
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
		t.AddRow(proto,
			fmt.Sprintf("%d", s.Counts.Get("bus.cycles")),
			fmt.Sprintf("%d", agg.Get("mem.supply")),
			fmt.Sprintf("%d", agg.Get("snoop.supply")))
	}
	return t
}

// A4UnitState ablates Section D.3's transfer-unit bookkeeping cost
// sweep: the bus-word savings of unit mode across atom sizes, at a
// fixed 16-word block.
func A4UnitState() *stats.Table {
	t := stats.NewTable("A4. Ablation: transfer-unit size for a 16-word block (Section D.3)",
		"unit words", "bus words", "vs whole-block")
	var whole int64
	for _, unit := range []int{16, 8, 4, 2, 1} {
		cfg := sim.DefaultConfig(core.Protocol{})
		cfg.Procs = 4
		cfg.Geometry = addr.MustGeometry(16, unit)
		cfg.Cache = cache.Config{Sets: 1, Ways: 64, UnitMode: unit != 16}
		s := sim.New(cfg)
		l := workload.Layout{G: s.Geometry()}
		w := workload.LockContention{Locks: 1, Iters: 25, HoldCycles: 5, CSWrites: 1,
			Scheme: syncprim.CacheLock, Seed: 53}
		mustRunPrograms(s, w.Programs(l, 4))
		words := s.Counts.Get("bus.words")
		if unit == 16 {
			whole = words
		}
		t.AddRow(fmt.Sprintf("%d", unit), fmt.Sprintf("%d", words),
			stats.Pct(whole-words, whole))
	}
	return t
}

// A5Replacement ablates the premise behind Feature 8's LRU argument:
// "If LRU replacement tends to hold across caches, our protocol can
// take advantage of it since the last cache to fetch a block always
// becomes the new source." Under FIFO or random replacement the
// newest source is no likelier to survive, so the advantage should
// shrink.
func A5Replacement() *stats.Table {
	t := stats.NewTable("A5. Ablation: cache replacement policy under last-fetcher-becomes-source (Feature 8)",
		"replacement", "bus cycles", "memory supplies", "cache supplies")
	for _, rp := range []cache.Replacement{cache.LRU, cache.FIFO, cache.Random} {
		cfg := sim.DefaultConfig(core.Protocol{})
		cfg.Procs = 4
		cfg.Cache = cache.Config{Sets: 1, Ways: 8, Replace: rp}
		s := sim.New(cfg)
		l := workload.Layout{G: s.Geometry()}
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
		t.AddRow(rp.String(),
			fmt.Sprintf("%d", s.Counts.Get("bus.cycles")),
			fmt.Sprintf("%d", agg.Get("mem.supply")),
			fmt.Sprintf("%d", agg.Get("snoop.supply")))
	}
	return t
}

// Ablations runs every ablation table.
func Ablations() []*stats.Table {
	return []*stats.Table{A1WaiterPriority(), A2ConcurrentFlush(), A3SourceRetention(), A4UnitState(), A5Replacement()}
}
