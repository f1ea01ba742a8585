package main

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"cachesync/internal/protocol"
	"cachesync/internal/report"
	"cachesync/internal/runner"
)

// artifacts: the full regeneration suite, runner.Run(report.AllJobs)
// with no result cache, checked against ARTIFACTS.json. A round runs
// the suite at two workers and at one.
var artifactsWL = &benchWorkload{
	name:      "artifacts",
	protocols: protocol.Names(),
	setup:     setupArtifacts,
	measure:   measureArtifacts,
}

// artifactsState is the committed manifest and each job's group.
type artifactsState struct {
	baseline *runner.ArtifactFile
	group    map[string]string
}

func setupArtifacts(e *env) (any, func(), error) {
	base, err := runner.ReadArtifacts(filepath.Join(e.root, "ARTIFACTS.json"))
	if err != nil {
		return nil, nil, err
	}
	group := map[string]string{}
	for g, jobs := range map[string][]runner.Job{
		"tables": report.TableJobs(), "experiments": report.ExperimentJobs(false),
		"ablations": report.AblationJobs(false), "figures": report.FigureJobs(),
	} {
		for _, j := range jobs {
			group[j.Name] = g
		}
	}
	return &artifactsState{baseline: base, group: group}, func() {}, nil
}

func measureArtifacts(e *env, state any, seconds float64, tr *tracer) (*outcome, error) {
	st := state.(*artifactsState)
	o := newOutcome()
	// The suite takes no input; the seed picks which pool size runs
	// first in every round.
	order := []int{2, 1}
	if e.seed%2 != 0 {
		order = []int{1, 2}
	}
	var twoMS, oneMS, roundRate []float64
	groupWall := map[string]time.Duration{}
	var jobWall, poolTime, suiteWall, critical time.Duration
	start := time.Now()
	for round := 0; round == 0 || time.Since(start).Seconds() < seconds; round++ {
		var roundArtifacts int
		var roundWall time.Duration
		for _, workers := range order {
			o.attempted++
			op := tr.begin("op", -1)
			t0 := time.Now()
			res, err := runner.Run(report.AllJobs(false), runner.Options{Workers: workers})
			d := time.Since(t0)
			tr.end(op)
			if err != nil {
				o.fail("suite at %d workers: %v", workers, err)
				continue
			}
			if bad := runner.Gate(io.Discard, st.baseline, res); bad > 0 || !res.AllPass() {
				o.fail("suite at %d workers: %d artifact(s) differ from ARTIFACTS.json (all pass: %v)", workers, bad, res.AllPass())
			}
			roundWall += d
			roundArtifacts += len(res.Jobs)
			if workers == 2 {
				twoMS = append(twoMS, ms(d))
			} else {
				oneMS = append(oneMS, ms(d))
			}
			if tr == nil || workers != 2 {
				continue
			}
			var longest time.Duration
			for _, j := range res.Jobs {
				groupWall[st.group[j.Artifact.Name]] += j.Wall
				if j.Artifact.Name == "E20" || j.Artifact.Name == "E21" {
					groupWall["e20_e21"] += j.Wall
				}
				jobWall += j.Wall
				longest = max(longest, j.Wall)
			}
			poolTime += time.Duration(res.Workers) * d
			suiteWall += d
			critical += longest
			o.layers["runner.jobs"] = float64(len(res.Jobs))
		}
		if roundWall > 0 {
			roundRate = append(roundRate, float64(roundArtifacts)/roundWall.Seconds())
		}
	}
	o.e2e["base_ms"] = median(twoMS)
	o.e2e["alt_ms"] = median(oneMS)
	o.e2e["tail_ms"], _ = tail(twoMS)
	o.e2e["capacity_per_s"] = median(roundRate)
	o.name("rounds", float64(len(twoMS)), "count")
	o.name("artifacts_suite_ms", o.e2e["base_ms"], "ms")
	if tr != nil && jobWall > 0 {
		for _, g := range []string{"tables", "experiments", "ablations", "figures", "e20_e21"} {
			o.layers["runner."+g+"_pct"] = 100 * groupWall[g].Seconds() / jobWall.Seconds()
			o.name(fmt.Sprintf("runner.job_ms.%s (per suite)", g), ms(groupWall[g])/float64(len(twoMS)), "ms")
		}
		o.layers["runner.busy_ratio"] = jobWall.Seconds() / poolTime.Seconds()
		o.layers["runner.critical_path_pct"] = 100 * critical.Seconds() / suiteWall.Seconds()
		// The suite's residual is pool time no job covered: idle
		// workers while the last jobs finish, dispatch and merging.
		o.layers["trace.residual_pct"] = 100 * (1 - jobWall.Seconds()/poolTime.Seconds())
		o.name("runner.critical_path_ms (per suite)", ms(critical)/float64(len(twoMS)), "ms")
	}
	return o, nil
}
