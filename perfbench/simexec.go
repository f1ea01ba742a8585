package main

import (
	"context"
	"fmt"
	"strings"

	"cachesync"
	"cachesync/internal/coherence"
	"cachesync/internal/sim"
	"cachesync/internal/simrun"
	"cachesync/internal/syncprim"
	"cachesync/internal/workload"
)

// simCounts accumulates the exact simulated counts and the checker
// call count of traced simulations.
type simCounts struct {
	runs      int
	checks    int64
	cycles    int64
	counters  map[string]int64
	lockSum   int64
	lockCount int64
	syncRefs  int64
	totalRefs int64
	probeRefs int64
	probeMiss int64
	busCmds   int64
}

func newSimCounts() *simCounts { return &simCounts{counters: map[string]int64{}} }

// tracedSim is simrun.Run taken apart at its layer boundaries:
// BuildMachine, then the workload's Programs, then RunProgramsContext
// with the coherence checker timed through sys.OnTxn, then the report
// rendering with cachesync.RenderStats. Each step is a span under
// parent. It must reproduce simrun.Run's Output byte for byte; the
// callers check that, because a decomposition that drifted from the
// program would describe a different program.
func tracedSim(ctx context.Context, cfg simrun.Config, tr *tracer, parent int, c *simCounts) (simrun.Result, error) {
	sp := tr.begin("simrun.build_machine", parent)
	sys, aq, err := simrun.BuildMachine(cfg)
	tr.end(sp)
	if err != nil {
		return simrun.Result{}, err
	}
	scheme, serr := cachesync.BestScheme(cfg.Protocol)
	if serr == nil && cfg.Scheme != "" {
		for s := syncprim.CacheLock; s <= syncprim.TASMemory; s++ {
			if s.String() == cfg.Scheme {
				scheme = s
			}
		}
	}
	sp = tr.begin("workload.programs", parent)
	progs := programs(cfg, workload.Layout{G: sys.Geometry()}, scheme)
	tr.end(sp)
	if progs == nil {
		return simrun.Result{}, fmt.Errorf("workload %q has no program form", cfg.Workload)
	}

	check := !cfg.NoCheck
	var violations []string
	seen := map[string]bool{}
	runSpan := tr.begin("sim.run", parent)
	if check {
		sys.OnTxn = func() {
			cs := tr.begin("coherence.check", runSpan)
			vs := coherence.Check(sys)
			tr.end(cs)
			c.checks++
			for _, v := range vs {
				if !seen[v] {
					seen[v] = true
					violations = append(violations, fmt.Sprintf("cycle %d: %s", sys.Clock(), v))
				}
			}
		}
	}
	err = sys.RunProgramsContext(ctx, progs)
	tr.end(runSpan)
	if err != nil {
		return simrun.Result{}, err
	}
	if check {
		cs := tr.begin("coherence.check", parent)
		for _, v := range coherence.Check(sys) {
			entry := "final state: " + v
			dup := false
			for _, have := range violations {
				dup = dup || have == entry
			}
			if !dup {
				violations = append(violations, entry)
			}
		}
		tr.end(cs)
		c.checks++
	}

	sp = tr.begin("report.render", parent)
	var b strings.Builder
	fmt.Fprintf(&b, "protocol=%s procs=%d workload=%s scheme=%v\n", sys.Protocol().Name(), cfg.Procs, cfg.Workload, scheme)
	if aq != nil {
		fmt.Fprintf(&b, "tiers=2 remote=%d\n", cfg.RemoteCycles)
	}
	fmt.Fprintf(&b, "finished at cycle %d\n\n", sys.Clock())
	hist := &sys.LockLatency
	if hist.Count() > 0 {
		fmt.Fprintf(&b, "hardware lock acquisitions: %d (mean %.1f cycles, max %d)\n\n", hist.Count(), hist.Mean(), hist.Max())
	}
	snap := sys.Stats().Snapshot()
	if aq != nil {
		if syncRefs, total := aq.BroadcastFraction(); total > 0 {
			fmt.Fprintf(&b, "broadcast fraction: %d/%d references (%.1f%%) needed the synchronization bus\n\n",
				syncRefs, total, 100*float64(syncRefs)/float64(total))
			c.syncRefs += syncRefs
			c.totalRefs += total
		}
		snap = aq.Stats().Snapshot()
	}
	b.WriteString(cachesync.RenderStats(snap))
	b.WriteString("\n")
	res := simrun.Result{Cycles: sys.Clock()}
	if len(violations) > 0 {
		fmt.Fprintf(&b, "coherence checker: %d violation(s):\n", len(violations))
		for _, v := range violations {
			b.WriteString("  " + v + "\n")
		}
	} else {
		if check {
			b.WriteString("coherence checker: clean (every bus transaction and the final state)\n")
		}
		res.Pass = true
	}
	res.Output = b.String()
	tr.end(sp)

	c.add(sys, snap)
	return res, nil
}

// add folds one finished machine into the counts.
func (c *simCounts) add(sys *sim.System, snap map[string]int64) {
	c.runs++
	c.cycles += sys.Clock()
	c.lockSum += sys.LockLatency.Sum()
	c.lockCount += int64(sys.LockLatency.Count())
	for k, v := range snap {
		c.counters[k] += v
		switch {
		case strings.HasPrefix(k, "proc.miss."):
			c.probeRefs += v
			c.probeMiss += v
		case strings.HasPrefix(k, "proc.hit."):
			c.probeRefs += v
		case strings.HasPrefix(k, "bus.") && !nonCommand[k]:
			c.busCmds += v
		}
	}
}

// nonCommand lists the bus.* counters that are not bus commands.
var nonCommand = map[string]bool{"bus.cycles": true, "bus.words": true, "bus.wait": true, "bus.access": true}

// nameSimLayers prints the simulation layers' absolute costs, the
// figures the per-layer shares are made from.
func nameSimLayers(o *outcome, tr *tracer, runCount int, checks int64, refs float64) {
	runs := float64(max(runCount, 1))
	check := tr.selfMS("coherence.check")
	runSelf := tr.selfMS("sim.run")
	o.name("simrun.build_machine_us", 1e3*tr.selfMS("simrun.build_machine")/runs, "us")
	o.name("workload.programs_us", 1e3*tr.selfMS("workload.programs")/runs, "us")
	o.name("coherence.check_ms", check, "ms")
	o.name("coherence.check_us_per_txn", 1e3*check/float64(max(checks, 1)), "us")
	o.name("sim.run_self_ms", runSelf, "ms")
	o.name("sim.host_ns_per_ref", 1e6*runSelf/max(refs, 1), "ns")
	o.name("report.render_us", 1e3*tr.selfMS("report.render")/runs, "us")
}

// layers writes the simulated counts under their per-layer names.
func (c *simCounts) layers(l map[string]float64) {
	l["coherence.checks"] = float64(c.checks)
	l["sim.refs"] = float64(c.probeRefs)
	l["sim.cycles"] = float64(c.cycles)
	l["bus.cycles"] = float64(c.counters["bus.cycles"])
	l["bus.commands"] = float64(c.busCmds)
	l["snoop.seen"] = float64(c.counters["snoop.seen"])
	if c.probeRefs > 0 {
		l["cache.miss_ratio"] = float64(c.probeMiss) / float64(c.probeRefs)
	}
	l["lock.denied"] = float64(c.counters["lock.denied"])
	l["lock.backoff"] = float64(c.counters["lock.backoff"])
	l["lock.rearb"] = float64(c.counters["lock.rearb"])
	if c.lockCount > 0 {
		l["lock.handoff_mean_cycles"] = float64(c.lockSum) / float64(c.lockCount)
	}
	l["xbar.bank-wait"] = float64(c.counters["xbar.bank-wait"])
	l["remote.req-wait"] = float64(c.counters["remote.req-wait"])
	if c.totalRefs > 0 {
		l["aquarius.broadcast_fraction"] = float64(c.syncRefs) / float64(c.totalRefs)
	}
}

// programs builds the direct-execution programs of cfg's generator
// workload with the parameters simrun uses. The output comparison in
// the callers catches any drift from simrun's choices.
func programs(cfg simrun.Config, l workload.Layout, scheme syncprim.Scheme) []sim.Program {
	switch cfg.Workload {
	case "mixed":
		return workload.Mixed{Ops: cfg.Ops, SharedBlocks: 8, PrivBlocks: 24,
			SharedFrac: 0.3, WriteFrac: 0.35, Seed: cfg.Seed}.Programs(l, cfg.Procs)
	case "lock":
		return workload.LockContention{Locks: 1, Iters: cfg.Iters, HoldCycles: cfg.Hold,
			ThinkCycles: 10, CSWrites: 2, Scheme: scheme, Seed: cfg.Seed}.Programs(l, cfg.Procs)
	case "pc":
		return workload.ProducerConsumer{Items: cfg.Iters, WritesPerItem: 4, Scheme: scheme}.Programs(l, cfg.Procs)
	case "queues":
		return workload.ServiceQueues{Requests: cfg.Iters, Scheme: scheme, Seed: cfg.Seed}.Programs(l, cfg.Procs)
	case "statesave":
		return workload.StateSave{Switches: cfg.Iters, StateBlocks: 4}.Programs(l, cfg.Procs)
	case "lockdata":
		return workload.LockedData{Locks: 1, Iters: cfg.Iters, Records: 6, Instrs: 4,
			Think: cfg.Hold, Scheme: scheme, Seed: cfg.Seed}.Programs(l, cfg.Procs)
	default:
		return nil
	}
}
