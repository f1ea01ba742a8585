package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"cachesync/internal/simrun"
)

// sim-mixed: one caller runs simrun.Run back to back on the mixed
// workload at p8, ops 2000. A round runs every config once with the
// coherence checker on (the CLI and daemon default) and once with
// nocheck (the library and experiment path).
var simMixed = &benchWorkload{
	name:      "sim-mixed",
	protocols: []string{"bitar", "illinois", "dragon", "writethrough"},
	setup:     noSetup,
	measure:   measureSimMixed,
}

// simMixedConfigs are the rotated configs: four protocols on one tier
// and bitar on the two-tier machine.
var simMixedConfigs = []simrun.Config{
	{Protocol: "bitar"}, {Protocol: "illinois"}, {Protocol: "dragon"},
	{Protocol: "writethrough"}, {Protocol: "bitar", Tiers: 2},
}

// simSeeds is how many simulation seeds have pinned outputs; the
// benchmark seed selects the one a run starts at.
const simSeeds = 16

// simProcs and simOps size every sim-mixed run: simProcs*simOps
// simulated processor references.
const simProcs, simOps = 8, 2000

func simMixedConfig(base simrun.Config, simSeed int64, check bool) simrun.Config {
	c := base
	c.Workload, c.Procs, c.Ops, c.Seed, c.NoCheck = "mixed", simProcs, simOps, simSeed, !check
	return c.Normalize()
}

// simSeedFor maps the benchmark seed onto a pinned simulation seed.
func simSeedFor(seed int64) int64 { return 1 + ((seed%simSeeds)+simSeeds)%simSeeds }

func pinKey(c simrun.Config) string {
	mode := "check"
	if c.NoCheck {
		mode = "nocheck"
	}
	return fmt.Sprintf("%s-t%d-seed%d-%s", c.Protocol, c.Tiers, c.Seed, mode)
}

// simPin is the pinned result of one sim-mixed config: its finishing
// cycle and the sha256 of its rendered output, which holds every
// counter of the stats snapshot.
type simPin struct {
	Cycles int64  `json:"cycles"`
	SHA256 string `json:"sha256"`
}

type pinFile struct {
	SimMixed map[string]simPin `json:"sim_mixed"`
}

//go:embed pins.json
var pinsJSON []byte

// pins is the pinned outputs; tests replace it to prove a wrong pin
// is reported as a failure.
var pins = mustPins(pinsJSON)

func mustPins(data []byte) pinFile {
	var p pinFile
	if err := json.Unmarshal(data, &p); err != nil {
		panic(fmt.Sprintf("pins.json: %v", err))
	}
	return p
}

func outputSHA(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// verifySim checks one sim-mixed result against its pin.
func verifySim(o *outcome, c simrun.Config, res simrun.Result) {
	key := pinKey(c)
	pin, ok := pins.SimMixed[key]
	switch {
	case !ok:
		o.fail("%s: no pinned output", key)
	case !res.Pass:
		o.fail("%s: coherence checker reported violations", key)
	case res.Cycles != pin.Cycles:
		o.fail("%s: finished at cycle %d, pinned %d", key, res.Cycles, pin.Cycles)
	case outputSHA(res.Output) != pin.SHA256:
		o.fail("%s: output fingerprint %s, pinned %s", key, outputSHA(res.Output), pin.SHA256)
	}
}

func measureSimMixed(e *env, _ any, seconds float64, tr *tracer) (*outcome, error) {
	o := newOutcome()
	ctx := context.Background()
	counts := newSimCounts()
	var checkedMS, uncheckedMS, opMS, roundRate []float64
	var refs int64
	start := time.Now()
	for round := 0; round == 0 || time.Since(start).Seconds() < seconds; round++ {
		// Each round runs the next pinned simulation seed, so every run
		// covers the same spread of inputs whatever seed it starts at.
		simSeed := simSeedFor(e.seed + int64(round))
		var roundChecked, roundUnchecked time.Duration
		var roundRefs int64
		for _, base := range simMixedConfigs {
			for _, check := range []bool{true, false} {
				c := simMixedConfig(base, simSeed, check)
				o.attempted++
				var res simrun.Result
				var err error
				t0 := time.Now()
				if tr == nil {
					res, err = simrun.Run(ctx, c)
				} else {
					op := tr.begin("op", -1)
					res, err = tracedSim(ctx, c, tr, op, counts)
					tr.end(op)
				}
				d := time.Since(t0)
				if err != nil {
					o.fail("%s: %v", pinKey(c), err)
					continue
				}
				roundRefs += int64(c.Procs * c.Ops)
				if check {
					roundChecked += d
					opMS = append(opMS, ms(d))
				} else {
					roundUnchecked += d
				}
				verifySim(o, c, res)
				if tr != nil && round == 0 {
					want, err := simrun.Run(ctx, c)
					if err != nil || want.Output != res.Output {
						o.fail("%s: traced decomposition does not reproduce simrun.Run's output", pinKey(c))
					}
				}
			}
		}
		if tr != nil && round == 0 {
			// One pass over the configs: the simulated counts are
			// exact and do not depend on how many rounds fit.
			counts.layers(o.layers)
		}
		n := float64(len(simMixedConfigs))
		checkedMS = append(checkedMS, ms(roundChecked)/n)
		uncheckedMS = append(uncheckedMS, ms(roundUnchecked)/n)
		roundRate = append(roundRate, float64(roundRefs)/(roundChecked+roundUnchecked).Seconds())
		refs += roundRefs
	}
	refsPerRun := float64(simProcs * simOps)
	o.e2e["base_ms"] = median(checkedMS)
	o.e2e["alt_ms"] = median(uncheckedMS)
	// The tail is over single checked runs: a round mean has too few
	// samples for a percentile with ten beyond it, and its maximum is
	// set by one stall of the shared host.
	var tailPct float64
	o.e2e["tail_ms"], tailPct = tail(opMS)
	o.e2e["capacity_per_s"] = median(roundRate)
	o.name(fmt.Sprintf("checked run tail (p%.1f of %d)", tailPct, len(opMS)), o.e2e["tail_ms"], "ms")
	o.name("rounds", float64(len(checkedMS)), "count")
	o.name("sim_checked_refs_per_s", refsPerRun/(o.e2e["base_ms"]/1e3), "1/s")
	o.name("sim_unchecked_refs_per_s", refsPerRun/(o.e2e["alt_ms"]/1e3), "1/s")
	if tr != nil {
		nameSimLayers(o, tr, counts.runs, counts.checks, float64(refs))
	}
	return o, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
