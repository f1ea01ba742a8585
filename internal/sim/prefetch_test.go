package sim

import (
	"strings"
	"testing"

	"cachesync/internal/addr"
	"cachesync/internal/protocol"
)

func TestLockPrefetchUncontended(t *testing.T) {
	s := coreSystem(1)
	run(t, s, []func(*Proc){func(p *Proc) {
		p.LockPrefetch(0)
		p.Compute(50) // ready section
		if v := p.LockWait(0); v != 0 {
			t.Errorf("LockWait = %d, want 0", v)
		}
		p.UnlockWrite(0, 1)
	}})
	if s.Counts.Get("lock.acquired") != 1 {
		t.Errorf("lock.acquired = %d", s.Counts.Get("lock.acquired"))
	}
}

func TestLockPrefetchHidesWait(t *testing.T) {
	// The paper's point: a processor that requests the lock early and
	// works while waiting loses less time than one that blocks.
	elapsed := func(prefetch bool) int64 {
		s := coreSystem(2)
		var waited int64
		ws := []func(*Proc){
			func(p *Proc) {
				p.LockRead(0)
				p.Compute(200) // long critical section
				p.UnlockWrite(0, 1)
			},
			func(p *Proc) {
				p.Compute(20) // arrive while P0 holds the lock
				if prefetch {
					p.LockPrefetch(0)
					p.Compute(180) // ready section overlaps the wait
					start := p.Now()
					p.LockWait(0)
					waited = p.Now() - start
				} else {
					p.Compute(180) // same local work, done before asking
					start := p.Now()
					p.LockRead(0)
					waited = p.Now() - start
				}
				p.UnlockWrite(0, 2)
			},
		}
		if err := s.Run(ws); err != nil {
			t.Fatal(err)
		}
		return waited
	}
	blocked := elapsed(false)
	overlapped := elapsed(true)
	if overlapped >= blocked {
		t.Errorf("prefetch did not hide the wait: %d cycles vs %d blocked", overlapped, blocked)
	}
}

func TestLockWaitWithoutPrefetchIsLockRead(t *testing.T) {
	s := coreSystem(1)
	run(t, s, []func(*Proc){func(p *Proc) {
		if v := p.LockWait(4); v != 0 {
			t.Errorf("LockWait = %d", v)
		}
		p.UnlockWrite(4, 9)
	}})
	if s.Counts.Get("lock.acquired") != 1 {
		t.Error("fallback lock not recorded")
	}
}

func TestLockPrefetchMutualExclusion(t *testing.T) {
	const procs, iters = 4, 15
	s := coreSystem(procs)
	ws := make([]func(*Proc), procs)
	for i := range ws {
		ws[i] = func(p *Proc) {
			for k := 0; k < iters; k++ {
				p.LockPrefetch(0)
				p.Compute(int64(7 + p.ID())) // ready section
				v := p.LockWait(0)
				p.UnlockWrite(0, v+1)
			}
		}
	}
	run(t, s, ws)
	var final uint64
	for _, c := range s.Caches {
		if v, ok := c.ReadWord(0); ok && c.Protocol().IsDirty(c.State(0)) {
			final = v
		}
	}
	if final == 0 {
		final = s.Mem.ReadWord(0)
	}
	if final != procs*iters {
		t.Errorf("counter = %d, want %d", final, procs*iters)
	}
}

func TestDoublePrefetchIsNoop(t *testing.T) {
	s := coreSystem(1)
	run(t, s, []func(*Proc){func(p *Proc) {
		p.LockPrefetch(0)
		p.LockPrefetch(0) // no-op
		p.LockWait(0)
		p.UnlockWrite(0, 1)
	}})
	if got := s.Counts.Get("lock.acquired"); got != 1 {
		t.Errorf("lock.acquired = %d, want 1", got)
	}
}

func TestPrefetchWhileIssuingOtherOps(t *testing.T) {
	// The ready section may contain real memory operations, not just
	// computation; they proceed while the busy-wait register waits.
	s := coreSystem(2)
	var got uint64
	run(t, s, []func(*Proc){
		func(p *Proc) {
			p.LockRead(0)
			p.Compute(300)
			p.UnlockWrite(0, 42)
		},
		func(p *Proc) {
			p.Compute(20)
			p.LockPrefetch(0)
			// Ready section with real work on other blocks.
			for k := 0; k < 10; k++ {
				p.Write(addr.Addr(8+k%4), uint64(k))
				p.Read(addr.Addr(8 + (k+1)%4))
			}
			got = p.LockWait(0)
			p.UnlockWrite(0, got+1)
		},
	})
	if got != 42 {
		t.Errorf("LockWait value = %d, want 42", got)
	}
}

func TestPrefetchDeterminism(t *testing.T) {
	runOnce := func() int64 {
		s := coreSystem(3)
		ws := make([]func(*Proc), 3)
		for i := range ws {
			ws[i] = func(p *Proc) {
				for k := 0; k < 10; k++ {
					p.LockPrefetch(0)
					p.Compute(int64(5 * (p.ID() + 1)))
					v := p.LockWait(0)
					p.UnlockWrite(0, v+1)
				}
			}
		}
		if err := s.Run(ws); err != nil {
			t.Fatal(err)
		}
		return s.Clock()
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Errorf("prefetch runs diverge: %d vs %d", a, b)
	}
}

// TestLockOpsNeedHardwareLock: a lock, lock-prefetch or lock-wait op
// on a protocol without the hardware lock fails the run with an error
// naming the protocol, whether a Program or a blocking workload issues
// it.
func TestLockOpsNeedHardwareLock(t *testing.T) {
	for _, c := range []struct {
		name string
		op   Op
		call func(*Proc)
	}{
		{"lock", LockReadOp(0), func(p *Proc) { p.LockRead(0) }},
		{"prefetch", LockPrefetchOp(0), func(p *Proc) { p.LockPrefetch(0) }},
		{"wait", LockWaitOp(0), func(p *Proc) { p.LockWait(0) }},
	} {
		for _, blocking := range []bool{false, true} {
			cfg := DefaultConfig(protocol.MustNew("illinois"))
			cfg.Procs = 2
			s := New(cfg)
			var err error
			if blocking {
				err = s.Run([]func(*Proc){nil, c.call})
			} else {
				err = s.RunPrograms([]Program{nil, &onceProg{op: c.op}})
			}
			if err == nil || !strings.Contains(err.Error(), `protocol "illinois" has no hardware lock`) {
				t.Errorf("%s (blocking=%v): err = %v, want the no-hardware-lock error", c.name, blocking, err)
			}
		}
	}
}

// onceProg issues one op.
type onceProg struct {
	op   Op
	done bool
}

func (g *onceProg) Next(*Proc, Result) (Op, bool) {
	if g.done {
		return Op{}, false
	}
	g.done = true
	return g.op, true
}
