package report

// Job definitions for the parallel experiment engine
// (internal/runner). Every table, experiment, ablation, and figure
// the sequential drivers used to print becomes one independent Job;
// the runner merges artifacts in job order, so parallel regeneration
// is byte-identical to the old sequential output.

import (
	"fmt"
	"strconv"
	"strings"

	"cachesync/internal/protocol/all"
	"cachesync/internal/runner"
	"cachesync/internal/stats"
	"cachesync/internal/workload"
)

// Experiments maps experiment IDs to their generators; ExperimentOrder
// gives the print order the drivers use.
var Experiments = map[string]func() *stats.Table{
	"E1": E1LockCost, "E2": E2BusyWait,
	"E3": E3SharedData, "E4": E4TransferUnits,
	"E5": E5InvalidateSignal, "E6": E6ReadForWrite,
	"E7": E7SourcePolicy, "E8": E8WriteNoFetch,
	"E9": E9Protocols, "E10": E10RudolphSegall,
	"E11": E11Directory, "E12": E12RMWMethods,
	"E13": E13IO, "E14": E14LockPurge,
	"E15": E15Broadcast, "E16": E16WorkWhileWaiting,
	"E17": E17SleepWait, "E18": E18DualBus,
	"E19": E19Aquarius, "E20": E20BroadcastFraction,
	"E21": E21Disaggregated,
}

// ExperimentOrder lists the quantitative experiments in print order.
var ExperimentOrder = []string{
	"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
	"E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19",
	"E20", "E21",
}

// tableArtifact renders a table exactly the way the sequential driver
// printed it: text via Println (render plus a blank separator line),
// CSV as title, rows, blank line.
func tableArtifact(t *stats.Table, csv bool) string {
	if csv {
		return t.Title + "\n" + t.CSV() + "\n"
	}
	return t.Render() + "\n"
}

// renderMode keys the cache on the output format.
func renderMode(csv bool) string {
	if csv {
		return "csv"
	}
	return "text"
}

func tableJob(name string, csv bool, f func() *stats.Table) runner.Job {
	return runner.Job{
		Name:       name,
		ConfigHash: renderMode(csv),
		Run: func() (runner.Artifact, error) {
			return runner.Artifact{Output: tableArtifact(f(), csv), Pass: true}, nil
		},
	}
}

// TableJobs covers Table 1 (with its cross-check against the matrix
// transcribed from the paper) and Table 2.
func TableJobs() []runner.Job {
	return []runner.Job{
		{Name: "table1", ConfigHash: "text", Run: func() (runner.Artifact, error) {
			var b strings.Builder
			b.WriteString(Table1().Render())
			b.WriteString("\n")
			diffs := VerifyTable1()
			if len(diffs) > 0 {
				b.WriteString("Table 1 mismatches against the paper:\n")
				for _, d := range diffs {
					b.WriteString("  " + d + "\n")
				}
			} else {
				b.WriteString("Table 1 matches the matrix transcribed from the paper.\n")
			}
			b.WriteString("\n")
			return runner.Artifact{Output: b.String(), Pass: len(diffs) == 0}, nil
		}},
		{Name: "table2", ConfigHash: "text", Run: func() (runner.Artifact, error) {
			return runner.Artifact{Output: Table2() + "\n", Pass: true}, nil
		}},
	}
}

// ExperimentJobs builds one job per quantitative experiment E1..E19.
func ExperimentJobs(csv bool) []runner.Job {
	jobs := make([]runner.Job, 0, len(ExperimentOrder))
	for _, id := range ExperimentOrder {
		jobs = append(jobs, tableJob(id, csv, Experiments[id]))
	}
	return jobs
}

// AblationJobs builds one job per ablation table A1..A5.
func AblationJobs(csv bool) []runner.Job {
	cases := []struct {
		name string
		f    func() *stats.Table
	}{
		{"A1", A1WaiterPriority}, {"A2", A2ConcurrentFlush},
		{"A3", A3SourceRetention}, {"A4", A4UnitState}, {"A5", A5Replacement},
	}
	jobs := make([]runner.Job, 0, len(cases))
	for _, c := range cases {
		jobs = append(jobs, tableJob(c.name, csv, c.f))
	}
	return jobs
}

// FigureJobs builds one job per figure reproduction, the two bus
// sequence diagrams, and the Figure 10 state-transition cross-check.
func FigureJobs() []runner.Job {
	figs := []struct {
		name string
		f    func() FigureResult
	}{
		{"figure1", Figure1}, {"figures2-3", Figure2and3},
		{"figure4", Figure4}, {"figure5", Figure5}, {"figure6", Figure6},
		{"figure7", Figure7}, {"figure8", Figure8}, {"figure9", Figure9},
	}
	var jobs []runner.Job
	for _, fg := range figs {
		f := fg.f
		jobs = append(jobs, runner.Job{Name: fg.name, ConfigHash: "text",
			Run: func() (runner.Artifact, error) {
				r := f()
				return runner.Artifact{Output: r.Render() + "\n", Pass: r.Pass}, nil
			}})
	}
	for _, fig := range []string{"4", "9"} {
		fig := fig
		jobs = append(jobs, runner.Job{Name: "figure" + fig + "-sequence", ConfigHash: "text",
			Run: func() (runner.Artifact, error) {
				seq, err := FigureSequence(fig)
				if err != nil {
					return runner.Artifact{Output: err.Error() + "\n", Pass: false}, nil
				}
				return runner.Artifact{Output: seq + "\n", Pass: true}, nil
			}})
	}
	jobs = append(jobs, runner.Job{Name: "figure10", ConfigHash: "text",
		Run: func() (runner.Artifact, error) {
			var b strings.Builder
			b.WriteString(Figure10Processor().Render() + "\n")
			b.WriteString(Figure10Bus().Render() + "\n")
			diffs := VerifyFigure10()
			if len(diffs) > 0 {
				b.WriteString("Figure 10 mismatches against the paper:\n")
				for _, d := range diffs {
					b.WriteString("  " + d + "\n")
				}
			} else {
				b.WriteString("Figure 10: every transcribed arc of the paper's diagram matches the implementation\n")
			}
			return runner.Artifact{Output: b.String(), Pass: len(diffs) == 0}, nil
		}})
	return jobs
}

// AllJobs is the full regeneration suite — tables, experiments,
// ablations, figures — in the order the sequential drivers printed
// them. This is the job list the artifact manifest and gate cover.
func AllJobs(csv bool) []runner.Job {
	jobs := TableJobs()
	jobs = append(jobs, ExperimentJobs(csv)...)
	jobs = append(jobs, AblationJobs(csv)...)
	jobs = append(jobs, FigureJobs()...)
	return jobs
}

// ParseSweepSpec parses a "-sweep procs=LO..HI" argument into the
// processor counts to fan across.
func ParseSweepSpec(spec string) ([]int, error) {
	body, ok := strings.CutPrefix(spec, "procs=")
	if !ok {
		return nil, fmt.Errorf("sweep spec %q: want procs=LO..HI", spec)
	}
	lo, hi, ok := strings.Cut(body, "..")
	if !ok {
		return nil, fmt.Errorf("sweep spec %q: want procs=LO..HI", spec)
	}
	a, err1 := strconv.Atoi(lo)
	b, err2 := strconv.Atoi(hi)
	if err1 != nil || err2 != nil || a < 1 || b < a {
		return nil, fmt.Errorf("sweep spec %q: bad range %s..%s", spec, lo, hi)
	}
	procs := make([]int, 0, b-a+1)
	for n := a; n <= b; n++ {
		procs = append(procs, n)
	}
	return procs, nil
}

// SweepJobs fans the E9 mixed workload across processor counts and
// every protocol — one independent job per grid cell, the repo's
// first many-core scaling surface outside the model checker. Each
// artifact is one tab-separated row; SweepTable folds them back into
// a table.
func SweepJobs(protos []string, procs []int) []runner.Job {
	var jobs []runner.Job
	for _, n := range procs {
		for _, name := range protos {
			n, name := n, name
			jobs = append(jobs, runner.Job{
				Name:       fmt.Sprintf("sweep/%s/p%d", name, n),
				ConfigHash: fmt.Sprintf("mixed ops=%d procs=%d", 100*n, n),
				Run: func() (runner.Artifact, error) {
					return runner.Artifact{Output: sweepRow(name, n), Pass: true}, nil
				},
			})
		}
	}
	return jobs
}

// sweepRow runs one (protocol, procs) cell of the sweep: the E9 mixed
// workload scaled to the processor count.
func sweepRow(proto string, procs int) string {
	s, l := rig(proto, procs, 32, false, g4)
	w := workload.Mixed{Ops: 100 * procs, SharedBlocks: 8, PrivBlocks: 8 * procs,
		SharedFrac: 0.3, WriteFrac: 0.35, Seed: 37}
	mustRunPrograms(s, w.Programs(l, procs))
	agg := s.Stats()
	idle := stats.Pct(agg.Get("proc.stall-cycles"), int64(procs)*s.Clock())
	cells := []string{
		proto,
		strconv.Itoa(procs),
		strconv.FormatInt(s.Clock(), 10),
		strconv.FormatInt(s.Counts.Get("bus.cycles"), 10),
		strconv.FormatInt(s.Counts.Get("bus.words"), 10),
		idle,
	}
	return strings.Join(cells, "\t") + "\n"
}

// SweepProtocols is the default protocol set for -sweep: every
// registered protocol.
func SweepProtocols() []string { return all.Everything }

// SweepTable folds the merged sweep rows (one tab-separated line per
// cell, in job order) back into a single table.
func SweepTable(rows string) *stats.Table {
	t := stats.NewTable("Sweep: mixed workload scaling (ops scale with processor count)",
		"protocol", "procs", "total cycles", "bus cycles", "bus words", "proc idle")
	for _, line := range strings.Split(strings.TrimRight(rows, "\n"), "\n") {
		if line == "" {
			continue
		}
		t.AddRow(strings.Split(line, "\t")...)
	}
	return t
}
