// Command perfbench is the repository's benchmark: one program for three
// workloads (sim-mixed, serve-sync, artifacts) that times
// calls into the public functions of the simulator, the daemon, the
// model checker and the artifact runner from outside, checks every
// output it times, and prints the result as one JSON line.
//
//	bash perfbench/run.sh --workload sim-mixed --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, whose
// spans are written under --trace-dir at exit. NOTES.md explains why
// each workload exists and which layer metric should move which
// end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"cachesync/internal/protocol"
)

// setupSamples is how many times a run repeats its set-up; setup_s is
// the median, so one cold or preempted sample does not move it.
const setupSamples = 9

// benchWorkload is one benchmark workload. setup builds whatever the
// measurement needs (first-use protocol tables, a server, a cache)
// and returns it with a release function; measure runs the workload
// for the given time, tracing into tr when it is non-nil.
type benchWorkload struct {
	name      string
	protocols []string
	setup     func(env *env) (any, func(), error)
	measure   func(env *env, state any, seconds float64, tr *tracer) (*outcome, error)
}

// env is what every workload reads: the checkout root, the seed and a
// scratch directory inside the checkout.
type env struct {
	root    string
	seed    int64
	scratch string
}

// outcome is one measurement: operation counts, the generic
// end-to-end metrics, the per-layer values it could observe, and the
// lines printed as text above the JSON line.
type outcome struct {
	attempted int
	failed    int
	failures  []string
	e2e       map[string]float64
	layers    map[string]float64
	notes     []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// fail records one failed or wrong operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// name records a named figure printed as text above the JSON line.
func (o *outcome) name(name string, value float64, unit string) {
	o.note("%-34s %14.4f %s", name, value, unit)
}

// note records a free-form line printed above the JSON line.
func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloads = []*benchWorkload{simMixed, serveSync, artifactsWL}

func findWorkload(name string) *benchWorkload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// e2eUnits and layerUnits list every metric the JSON line carries, in
// the units BENCHMARK.json declares.
var e2eUnits = map[string]string{
	"setup_s":        "s",
	"base_ms":        "ms",
	"alt_ms":         "ms",
	"tail_ms":        "ms",
	"capacity_per_s": "1/s",
	"peak_rss_mb":    "MB",
}

var layerUnits = map[string]string{
	"fail_ratio":                  "ratio",
	"trace.overhead_pct":          "%",
	"trace.residual_pct":          "%",
	"setup.compile_ms":            "ms",
	"simrun.build_machine_pct":    "%",
	"workload.programs_pct":       "%",
	"sim.run_self_pct":            "%",
	"coherence.check_pct":         "%",
	"report.render_pct":           "%",
	"coherence.checks":            "count",
	"sim.refs":                    "count",
	"sim.cycles":                  "cycles",
	"bus.cycles":                  "cycles",
	"bus.commands":                "count",
	"snoop.seen":                  "count",
	"cache.miss_ratio":            "ratio",
	"lock.denied":                 "count",
	"lock.backoff":                "count",
	"lock.rearb":                  "count",
	"lock.handoff_mean_cycles":    "cycles",
	"xbar.bank-wait":              "count",
	"remote.req-wait":             "count",
	"aquarius.broadcast_fraction": "ratio",
	"serve.exec_pct":              "%",
	"serve.overhead_pct":          "%",
	"serve.handler_pct":           "%",
	"serve.max_rps":               "1/s",
	"serve.coalesced":             "count",
	"serve.shed":                  "count",
	"serve.repeat_ratio":          "ratio",
	"serve.late_send_ratio":       "ratio",
	"serve.requests.simulate":     "count",
	"serve.requests.check":        "count",
	"mcheck.run_pct":              "%",
	"mcheck.max_level_pct":        "%",
	"mcheck.levels":               "count",
	"mcheck.states":               "count",
	"mcheck.transitions":          "count",
	"mcheck.new_state_ratio":      "ratio",
	"mcheck.ram_bytes":            "bytes",
	"runner.jobs":                 "count",
	"runner.tables_pct":           "%",
	"runner.experiments_pct":      "%",
	"runner.ablations_pct":        "%",
	"runner.figures_pct":          "%",
	"runner.e20_e21_pct":          "%",
	"runner.busy_ratio":           "ratio",
	"runner.critical_path_pct":    "%",
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: sim-mixed | serve-sync | artifacts")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 30, "how long the run measures")
	traced := fs.Int("trace", 0, "1 runs the traced decomposition and prints per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "where a traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (sim-mixed|serve-sync|artifacts), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root:", err)
		return 1
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: scratch dir:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(build, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: scratch dir:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	e := &env{root: root, seed: *seed, scratch: scratch}

	fmt.Printf("host: nproc=%d gomaxprocs=%d go=%s os=%s/%s workload=%s seed=%d seconds=%g trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		w.name, *seed, *seconds, *traced)

	out, err := execute(w, e, *seconds, *traced == 1, *traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, f := range out.failures {
		fmt.Println("FAIL:", f)
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	units := e2eUnits
	vals := out.e2e
	if *traced == 1 {
		units, vals = layerUnits, out.layers
	}
	metrics := map[string]map[string]any{}
	for _, k := range sortedKeys(units) {
		v, ok := vals[k]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", k)
			return 1
		}
		if *traced == 0 {
			fmt.Printf("%-34s %14.4f %s\n", k, v, units[k])
		}
		metrics[k] = map[string]any{"value": v, "unit": units[k]}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// execute sets the workload up setupSamples times, keeps the last
// set-up for the measurement, and measures. A traced run measures
// twice, untraced and then traced, each for half the time, so the
// tracing overhead is the difference of the two.
func execute(w *benchWorkload, e *env, seconds float64, traced bool, traceDir string) (*outcome, error) {
	setupS, compileMS, state, release, err := setUp(w, e)
	if err != nil {
		return nil, err
	}
	defer func() { release() }()
	if !traced {
		out, err := w.measure(e, state, seconds, nil)
		if err != nil {
			return nil, err
		}
		out.e2e["setup_s"] = setupS
		if _, ok := out.e2e["peak_rss_mb"]; !ok {
			out.e2e["peak_rss_mb"] = peakRSSMB()
		}
		return out, nil
	}
	plain, err := w.measure(e, state, seconds/2, nil)
	if err != nil {
		return nil, err
	}
	// The traced half gets a set-up of its own (a fresh daemon for
	// serve-sync), so it starts as cold as the untraced half did.
	release()
	state, release, err = w.setup(e)
	if err != nil {
		release = func() {}
		return nil, err
	}
	tr := newTracer()
	out, err := w.measure(e, state, seconds/2, tr)
	if err != nil {
		return nil, err
	}
	out.attempted += plain.attempted
	out.failed += plain.failed
	out.failures = append(plain.failures, out.failures...)
	out.notes = append(append(append([]string{"untraced half:"}, plain.notes...), "traced half:"), out.notes...)
	layers := map[string]float64{}
	for k := range layerUnits {
		layers[k] = 0
	}
	for k, v := range tr.layerShares() {
		layers[k] = v
	}
	for k, v := range out.layers {
		layers[k] = v
	}
	layers["setup.compile_ms"] = compileMS
	layers["fail_ratio"] = float64(out.failed) / float64(max(out.attempted, 1))
	if p, t := plain.e2e["base_ms"], out.e2e["base_ms"]; p > 0 {
		layers["trace.overhead_pct"] = 100 * (t - p) / p
	}
	out.layers = layers
	out.name("untraced base_ms", plain.e2e["base_ms"], "ms")
	out.name("traced base_ms", out.e2e["base_ms"], "ms")
	for _, l := range tr.selfTimes() {
		out.name("self "+l.name, l.ms, "ms")
	}
	if !filepath.IsAbs(traceDir) {
		traceDir = filepath.Join(e.root, traceDir)
	}
	if err := tr.write(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, e.seed)); err != nil {
		return nil, err
	}
	return out, nil
}

// setUp runs the workload's set-up setupSamples times and returns the
// median wall time (s), the median protocol-table compile time (ms),
// and the last set-up's state. The first sample compiles the tables
// through protocol.TableFor, which is what a fresh process pays on
// first use; later samples repeat the same compilation through
// protocol.Compile, because TableFor keeps what it compiled.
func setUp(w *benchWorkload, e *env) (float64, float64, any, func(), error) {
	var walls, compiles []float64
	var state any
	release := func() {}
	for i := 0; i < setupSamples; i++ {
		release()
		release = func() {}
		t0 := time.Now()
		for _, name := range w.protocols {
			p, err := protocol.New(name)
			if err != nil {
				return 0, 0, nil, nil, err
			}
			if i == 0 {
				protocol.TableFor(p)
			} else if _, err := protocol.Compile(p); err != nil {
				return 0, 0, nil, nil, fmt.Errorf("compile %s: %w", name, err)
			}
		}
		compiled := time.Since(t0)
		s, rel, err := w.setup(e)
		if err != nil {
			return 0, 0, nil, nil, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		compiles = append(compiles, float64(compiled.Nanoseconds())/1e6)
		state, release = s, rel
	}
	return median(walls), median(compiles), state, release, nil
}

// noSetup is the set-up of a workload that needs nothing beyond its
// protocol tables.
func noSetup(*env) (any, func(), error) { return nil, func() {}, nil }

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// median returns the middle value (the mean of the two middle values
// for an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least ten
// samples beyond it, with that percentile. With fewer than 22 samples
// that percentile would sit at or below the median, so it returns the
// maximum (100) instead.
func tail(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 22 {
		return s[n-1], 100
	}
	idx := n - 11
	return s[idx], 100 * float64(idx+1) / float64(n)
}
