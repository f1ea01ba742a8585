// Command cachesim runs one workload on one protocol — or, with
// -protocols, the same workload across several protocols as parallel
// jobs through the experiment engine (internal/runner) — and prints
// the full statistics: the general-purpose driver for exploring the
// simulator.
//
//	go run ./cmd/cachesim -protocol bitar -procs 8 -workload lock -iters 50
//	go run ./cmd/cachesim -protocol illinois -workload mixed -ops 2000
//	go run ./cmd/cachesim -protocols all -j 8 -workload mixed
//	go run ./cmd/cachesim -workload trace -trace ref.trace
//
// The online coherence checker (-check, on by default) validates
// every bus transaction and the quiesced final state; violations make
// the run exit nonzero. -inject seeds a deliberate protocol bug (for
// exercising the checker): an injected run must fail.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"cachesync"
	"cachesync/internal/mcheck"
	"cachesync/internal/runner"
	"cachesync/internal/simrun"
)

var (
	protoName  = flag.String("protocol", "bitar", "protocol name (see -list)")
	protoList  = flag.String("protocols", "", "comma-separated protocol names, or 'all': run each as a parallel job through the runner (overrides -protocol)")
	workers    = flag.Int("j", 0, "worker pool size for multi-protocol runs (default GOMAXPROCS)")
	list       = flag.Bool("list", false, "list protocols and exit")
	listInject = flag.Bool("list-injections", false, "list injectable seeded bugs and exit")
	inject     = flag.String("inject", "", "inject the named seeded protocol bug; with -check the run must exit nonzero")
	procs      = flag.Int("procs", 4, "processor count")
	ways       = flag.Int("ways", 64, "cache ways (1 set, fully associative)")
	blockW     = flag.Int("block", 4, "block size in words")
	unitW      = flag.Int("unit", 0, "transfer unit in words (0 = whole block)")
	unitMode   = flag.Bool("unitmode", false, "enable transfer-unit cost accounting")
	wname      = flag.String("workload", "mixed", "workload: mixed | lock | pc | queues | statesave | lockdata | trace")
	ops        = flag.Int("ops", 500, "operations per processor (mixed)")
	iters      = flag.Int("iters", 25, "iterations (lock, pc, queues)")
	hold       = flag.Int64("hold", 20, "critical-section cycles (lock)")
	seed       = flag.Int64("seed", 1, "workload seed")
	traceFile  = flag.String("trace", "", "trace file to replay (workload=trace)")
	schemeStr  = flag.String("scheme", "", "lock scheme: cachelock | tas | ttas | tasmemory (default: best for protocol)")
	buses      = flag.Int("buses", 1, "broadcast buses (1 or 2, Section A.2)")
	logN       = flag.Int("log", 0, "print the first N bus transactions (0 = off)")
	check      = flag.Bool("check", true, "run the online coherence checker after every bus transaction; violations make the run exit nonzero")
	sweepProcs = flag.String("sweep-procs", "", "processor counts to sweep, e.g. 2..8 or 1,2,4,8: run every selected protocol at each count on the in-process parallel cell executor (width -j), output merged in cell order")
	tiers      = flag.Int("tiers", 1, "memory tiers: 1 = classic one-bus system, 2 = routed two-tier Aquarius machine (sync bus + crossbar)")
	remoteCyc  = flag.Int("remote-cycles", 0, "with -tiers 2, one-way latency to a disaggregated lower tier (0 = local crossbar)")
	sweepRem   = flag.String("sweep-remote", "", "remote-latency values to sweep with -tiers 2, e.g. 0,16,64,256 (same cell executor as -sweep-procs; axes cross)")
)

// parseProcCounts accepts "a..b" ranges and comma lists.
func parseProcCounts(spec string) ([]int, error) {
	if lo, hi, ok := strings.Cut(spec, ".."); ok {
		a, err1 := strconv.Atoi(strings.TrimSpace(lo))
		b, err2 := strconv.Atoi(strings.TrimSpace(hi))
		if err1 != nil || err2 != nil || a < 1 || b < a {
			return nil, fmt.Errorf("bad -sweep-procs range %q", spec)
		}
		var out []int
		for n := a; n <= b; n++ {
			out = append(out, n)
		}
		return out, nil
	}
	var out []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -sweep-procs entry %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// runSweep fans protos × counts × remote latencies over the
// in-process parallel cell executor. Cells merge in submission order,
// so the printed output is byte-identical to a sequential loop at any
// worker count.
func runSweep(w, ew io.Writer, base simrun.Config, protos []string, counts, remotes []int, workers int) int {
	var cfgs []simrun.Config
	for _, p := range protos {
		for _, n := range counts {
			for _, r := range remotes {
				cfg := base
				cfg.Protocol = p
				cfg.Procs = n
				cfg.RemoteCycles = r
				cfgs = append(cfgs, cfg.Normalize())
			}
		}
	}
	if !validate(ew, cfgs) {
		return 2
	}
	pass := true
	err := simrun.RunCells(context.Background(), cfgs, workers, func(i int, res simrun.Result) {
		hdr := fmt.Sprintf("%s procs=%d", cfgs[i].Protocol, cfgs[i].Procs)
		if len(remotes) > 1 || cfgs[i].RemoteCycles > 0 {
			hdr += fmt.Sprintf(" remote=%d", cfgs[i].RemoteCycles)
		}
		fmt.Fprintf(w, "=== %s ===\n%s\n", hdr, res.Output)
		pass = pass && res.Pass
	})
	if err != nil {
		fmt.Fprintln(ew, err)
		return 2
	}
	if !pass {
		fmt.Fprintln(ew, "coherence checker: violations in at least one sweep cell")
		return 1
	}
	return 0
}

// validate checks every config before any runs, printing the first
// failure to ew: out-of-range flags are usage errors, not runs of
// some other machine.
func validate(ew io.Writer, cfgs []simrun.Config) bool {
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			fmt.Fprintln(ew, err)
			return false
		}
	}
	return true
}

// parseRemoteCycles accepts a comma list of latencies (0 allowed).
func parseRemoteCycles(spec string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad -sweep-remote entry %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// runOne executes one configured simulation and renders its report —
// delegated to internal/simrun, the layer cmd/cachesim now shares with
// the cachesyncd daemon (which is what keeps daemon responses
// byte-identical to this CLI's output). pass is false when the
// coherence checker found violations (they are included in the
// rendered output).
func runOne(cfg simrun.Config) (out string, pass bool, err error) {
	res, err := simrun.Run(context.Background(), cfg)
	if err != nil {
		return "", false, err
	}
	return res.Output, res.Pass, nil
}

// jobs builds one runner job per protocol from the base config.
func jobs(base simrun.Config, protos []string) []runner.Job {
	out := make([]runner.Job, 0, len(protos))
	for _, p := range protos {
		cfg := base
		cfg.Protocol = p
		out = append(out, runner.Job{
			Name:       "cachesim/" + p,
			ConfigHash: cfg.Hash(),
			Run: func() (runner.Artifact, error) {
				text, pass, err := runOne(cfg)
				if err != nil {
					return runner.Artifact{}, err
				}
				return runner.Artifact{Output: text, Pass: pass}, nil
			},
		})
	}
	return out
}

// finish prints the merged output and returns the process exit code:
// nonzero when any run's checker found violations.
func finish(w, ew io.Writer, res *runner.Result) int {
	fmt.Fprint(w, res.Output())
	if !res.AllPass() {
		var bad []string
		for _, j := range res.Jobs {
			if !j.Artifact.Pass {
				bad = append(bad, j.Artifact.Name)
			}
		}
		fmt.Fprintf(ew, "coherence checker: violations in %s\n", strings.Join(bad, ", "))
		return 1
	}
	return 0
}

func main() {
	flag.Parse()
	if *simBenchJSON != "" {
		os.Exit(runSimBench(*simBenchJSON))
	}
	if *aqBenchJSON != "" {
		os.Exit(runAquariusBench(*aqBenchJSON))
	}
	if *list {
		for _, n := range cachesync.Protocols() {
			fmt.Println(n)
		}
		return
	}
	if *listInject {
		for _, n := range mcheck.MutantNames() {
			fmt.Println(n)
		}
		return
	}

	base := simrun.Config{
		Protocol: *protoName, Inject: *inject,
		Procs: *procs, Ways: *ways, BlockWords: *blockW, UnitWords: *unitW,
		UnitMode: *unitMode, Buses: *buses,
		Workload: *wname, Ops: *ops, Iters: *iters,
		Hold: *hold, Seed: *seed,
		TraceFile: *traceFile, Scheme: *schemeStr,
		LogN: *logN, NoCheck: !*check,
		Tiers: *tiers, RemoteCycles: *remoteCyc,
	}
	protos := []string{*protoName}
	if *protoList != "" {
		if strings.EqualFold(*protoList, "all") {
			protos = cachesync.Protocols()
		} else {
			protos = strings.Split(*protoList, ",")
			for i := range protos {
				protos[i] = strings.TrimSpace(protos[i])
			}
		}
	}

	if *sweepProcs != "" || *sweepRem != "" {
		counts := []int{base.Procs}
		if *sweepProcs != "" {
			var err error
			if counts, err = parseProcCounts(*sweepProcs); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		}
		remotes := []int{base.RemoteCycles}
		if *sweepRem != "" {
			var err error
			if remotes, err = parseRemoteCycles(*sweepRem); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		}
		os.Exit(runSweep(os.Stdout, os.Stderr, base, protos, counts, remotes, *workers))
	}

	os.Exit(runProtocols(os.Stdout, os.Stderr, base, protos, *workers))
}

// runProtocols runs base once per protocol through the runner and
// returns the process exit code: 2 for a config that fails validation
// or a run that fails, else finish's.
func runProtocols(w, ew io.Writer, base simrun.Config, protos []string, workers int) int {
	cfgs := make([]simrun.Config, len(protos))
	for i, p := range protos {
		cfgs[i] = base
		cfgs[i].Protocol = p
	}
	if !validate(ew, cfgs) {
		return 2
	}
	// No result cache here: cachesim is the interactive exploration
	// driver, and trace-file contents are not part of the cache key.
	res, err := runner.Run(jobs(base, protos), runner.Options{Workers: workers})
	if err != nil {
		fmt.Fprintln(ew, err)
		return 2
	}
	return finish(w, ew, res)
}
