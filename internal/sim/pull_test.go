package sim

import (
	"runtime"
	"testing"
	"time"

	"cachesync/internal/protocol"
)

// TestRunWorkloadPanicReachesCaller pins that a blocking workload's
// panic surfaces from Run on the caller's goroutine with its original
// value, that the other workloads are unwound mid-run, and that no
// goroutine outlives the run.
func TestRunWorkloadPanicReachesCaller(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(DefaultConfig(protocol.MustNew("bitar")))
	ws := longWorkloads(s, 4, 2_000_000)
	unwound := make([]bool, len(ws))
	for i, w := range ws {
		i, w := i, w
		ws[i] = func(p *Proc) {
			defer func() { unwound[i] = true }()
			w(p)
		}
	}
	ws[2] = func(p *Proc) {
		p.Read(0)
		p.Write(4, 1)
		panic("workload bug")
	}

	var got any
	func() {
		defer func() { got = recover() }()
		s.Run(ws)
	}()
	if got != "workload bug" {
		t.Fatalf("recovered %v, want the workload's panic value", got)
	}
	for i, ok := range unwound {
		if i != 2 && !ok {
			t.Errorf("workload %d was not unwound", i)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after the panic",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
