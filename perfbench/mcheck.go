package main

import (
	"time"

	"cachesync/internal/mcheck"
)

// mcheckStats accumulates what the Progress hook and the results show
// of the checker's work.
type mcheckStats struct {
	levels      int
	states      int64
	transitions int64
	maxLevel    time.Duration
	wall        time.Duration
	ramBytes    int64
}

// runCheck runs one config under span parent. Traced, it records each
// BFS level as a span that ends at its Progress callback.
func runCheck(opts mcheck.Options, tr *tracer, parent int, st *mcheckStats) (mcheck.Result, time.Duration, error) {
	sp := tr.begin("mcheck.run", parent)
	t0 := time.Now()
	last := t0
	if tr != nil {
		opts.Progress = func(p mcheck.ProgressInfo) {
			now := time.Now()
			tr.record("mcheck.level", sp, last, now)
			st.levels++
			st.maxLevel = max(st.maxLevel, now.Sub(last))
			st.ramBytes = max(st.ramBytes, p.RAMBytes)
			last = now
		}
	}
	res, err := mcheck.Run(opts)
	d := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return mcheck.Result{}, d, err
	}
	st.wall += d
	st.states += res.States
	st.transitions += res.Transitions
	return *res, d, nil
}

// layers writes the checker's per-layer values.
func (st *mcheckStats) layers(l map[string]float64) {
	l["mcheck.levels"] = float64(st.levels)
	l["mcheck.states"] = float64(st.states)
	l["mcheck.transitions"] = float64(st.transitions)
	if st.transitions > 0 {
		l["mcheck.new_state_ratio"] = float64(st.states) / float64(st.transitions)
	}
	l["mcheck.ram_bytes"] = float64(st.ramBytes)
	if st.wall > 0 {
		l["mcheck.max_level_pct"] = 100 * st.maxLevel.Seconds() / st.wall.Seconds()
	}
}
