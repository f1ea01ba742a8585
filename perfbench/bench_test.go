package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cachesync/internal/simrun"
)

var update = flag.Bool("update", false, "rewrite pins.json from fresh runs")

// testEnv runs a workload from the repository root, with a scratch
// directory (and TMPDIR) under its .bench_build.
func testEnv(t *testing.T) *env {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		t.Fatal(err)
	}
	scratch, err := os.MkdirTemp(base, "test-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(scratch) })
	t.Setenv("TMPDIR", scratch)
	return &env{root: root, seed: 3, scratch: scratch}
}

// TestWritePins regenerates pins.json (go test -run TestWritePins
// -update). The pins are the program's outputs at the commit that
// wrote them; a change that moves them changes what the program
// computes.
func TestWritePins(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite pins.json")
	}
	pf := pinFile{SimMixed: map[string]simPin{}}
	for s := int64(1); s <= simSeeds; s++ {
		for _, base := range simMixedConfigs {
			for _, check := range []bool{true, false} {
				c := simMixedConfig(base, s, check)
				res, err := simrun.Run(context.Background(), c)
				if err != nil || !res.Pass {
					t.Fatalf("%s: pass=%v err=%v", pinKey(c), res.Pass, err)
				}
				pf.SimMixed[pinKey(c)] = simPin{Cycles: res.Cycles, SHA256: outputSHA(res.Output)}
			}
		}
	}
	data, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("pins.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and this program in step:
// the same workloads and the same metrics in the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("workload %s is not in the program", w.Name)
		}
	}
	for _, set := range []struct {
		listed []struct{ Name, Unit string }
		units  map[string]string
	}{{b.EndToEnd, e2eUnits}, {b.PerLayer, layerUnits}} {
		if len(set.listed) != len(set.units) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program prints %d", len(set.listed), len(set.units))
		}
		for _, m := range set.listed {
			if u, ok := set.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("metric %s in %s: the program prints unit %q", m.Name, m.Unit, u)
			}
		}
	}
}

// TestShortRuns runs every workload for one round, untraced and
// traced, and requires every operation to succeed and every metric to
// be reported.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			e := testEnv(t)
			out, err := execute(w, e, 0.5, traced, filepath.Join(e.scratch, "trace"))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if out.attempted == 0 || out.failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.name, traced, out.failed, out.attempted, out.failures)
			}
			units, vals := e2eUnits, out.e2e
			if traced {
				units, vals = layerUnits, out.layers
			}
			for k := range units {
				if _, ok := vals[k]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, k)
				}
			}
			if !traced {
				for k, v := range vals {
					if v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, k, v)
					}
				}
			}
		}
	}
}

// TestCorruptPinFails proves a wrong pinned fingerprint is reported as
// a failed operation, not passed over.
func TestCorruptPinFails(t *testing.T) {
	saved := pins
	t.Cleanup(func() { pins = saved })
	e := testEnv(t)

	pins = mustPins(pinsJSON)
	key := pinKey(simMixedConfig(simMixedConfigs[0], simSeedFor(e.seed), true))
	p := pins.SimMixed[key]
	p.SHA256 = "0" + p.SHA256[1:]
	if p.SHA256 == saved.SimMixed[key].SHA256 {
		p.SHA256 = "1" + p.SHA256[1:]
	}
	pins.SimMixed[key] = p
	out, err := measureSimMixed(e, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 1 {
		t.Errorf("sim-mixed with a corrupted fingerprint: %d failed, want 1 (%v)", out.failed, out.failures)
	}

}
