//go:build go1.23

package sim

import (
	"context"
	"iter"
)

// pullProgram adapts a blocking func(*Proc) workload into a Program:
// the workload runs as an iter.Pull coroutine, each Proc call yields
// its op to Next, and Next leaves the previous op's Result in the Proc
// for the resumed call to return.
type pullProgram struct {
	next func() (procOp, bool)
	stop func()
}

func newPullProgram(p *Proc, w func(*Proc)) *pullProgram {
	next, stop := iter.Pull(func(yield func(procOp) bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, canceled := r.(simCancelPanic); !canceled {
					panic(r) // a genuine workload bug: reaches Run's caller
				}
			}
		}()
		p.yield = yield
		w(p)
	})
	return &pullProgram{next: next, stop: stop}
}

func (a *pullProgram) Next(p *Proc, last Result) (Op, bool) {
	p.last = last
	op, ok := a.next()
	return Op{op}, ok
}

// Run executes one blocking workload function per processor
// (workloads[i] runs on processor i; missing entries idle). Each
// workload becomes a Program stepped by the same event loop as
// RunPrograms, so the run creates no goroutine or channel of its own.
// It returns once every workload has finished, or an error on
// deadlock or cycle overrun; a panicking workload panics Run with the
// original value.
func (s *System) Run(workloads []func(*Proc)) error {
	return s.RunContext(context.Background(), workloads)
}

// RunContext is Run with cancellation: when ctx ends (or the run
// fails), the event loop returns and every unfinished workload is
// stopped — its pending Proc call panics with an internal sentinel
// that the adapter recovers, so the workload unwinds without
// cooperating. The System is abandoned mid-flight and — like any
// System after Run — must not be reused.
func (s *System) RunContext(ctx context.Context, workloads []func(*Proc)) error {
	progs := make([]Program, len(s.Procs))
	for i, p := range s.Procs {
		if i < len(workloads) && workloads[i] != nil {
			a := newPullProgram(p, workloads[i])
			defer a.stop()
			progs[i] = a
		}
	}
	return s.RunProgramsContext(ctx, progs)
}
