package syncprim

import (
	"testing"

	"cachesync/internal/addr"
	"cachesync/internal/protocol"
	"cachesync/internal/protocol/all"
	"cachesync/internal/sim"
)

func mkSystem(t *testing.T, name string, procs int) *sim.System {
	t.Helper()
	p := protocol.MustNew(name)
	cfg := sim.DefaultConfig(p)
	cfg.Procs = procs
	if p.Features().OneWordBlocks {
		cfg.Geometry = addr.MustGeometry(1, 1)
	}
	return sim.New(cfg)
}

func TestSchemeFor(t *testing.T) {
	cases := map[string]Scheme{
		"bitar":        CacheLock,
		"writethrough": TASMemory,
		"illinois":     TTAS,
		"goodman":      TTAS,
		"dragon":       TTAS,
	}
	for name, want := range cases {
		if got := SchemeFor(protocol.MustNew(name)); got != want {
			t.Errorf("SchemeFor(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestParseScheme(t *testing.T) {
	bitar, illinois := protocol.MustNew("bitar"), protocol.MustNew("illinois")
	for s := CacheLock; s <= TASMemory; s++ {
		if got, err := ParseScheme(s.String(), bitar); err != nil || got != s {
			t.Errorf("ParseScheme(%q, bitar) = %v, %v", s, got, err)
		}
	}
	if got, err := ParseScheme("", illinois); err != nil || got != TTAS {
		t.Errorf("ParseScheme(\"\", illinois) = %v, %v; want the protocol's best scheme", got, err)
	}
	for _, c := range []struct {
		name string
		p    protocol.Protocol
	}{{"bogus", bitar}, {"CacheLock", bitar}, {"cachelock", illinois}} {
		if _, err := ParseScheme(c.name, c.p); err == nil {
			t.Errorf("ParseScheme(%q, %s) accepted", c.name, c.p.Name())
		}
	}
}

func TestSchemeStrings(t *testing.T) {
	if CacheLock.String() != "cachelock" || TTAS.String() != "ttas" {
		t.Error("scheme names wrong")
	}
	if MethodLockState.String() != "lock-state" || MethodMemoryHold.String() != "memory-hold" {
		t.Error("method names wrong")
	}
}

// mutualExclusion runs a critical-section counter under the scheme
// and checks exactness. The counter lives in a different block from
// the lock word.
func mutualExclusion(t *testing.T, protoName string, scheme Scheme, procs, iters int) {
	t.Helper()
	s := mkSystem(t, protoName, procs)
	g := s.Geometry()
	lock := g.Base(0)
	counter := g.Base(4)
	ws := make([]func(*sim.Proc), procs)
	for i := range ws {
		ws[i] = func(p *sim.Proc) {
			for k := 0; k < iters; k++ {
				Acquire(p, scheme, lock)
				v := p.Read(counter)
				p.Compute(3)
				p.Write(counter, v+1)
				Release(p, scheme, lock)
			}
		}
	}
	if err := s.Run(ws); err != nil {
		t.Fatalf("%s/%v: %v", protoName, scheme, err)
	}
	got := latest(s, counter)
	if got != uint64(procs*iters) {
		t.Errorf("%s/%v: counter = %d, want %d", protoName, scheme, got, procs*iters)
	}
}

func latest(s *sim.System, a addr.Addr) uint64 {
	b := s.Geometry().BlockOf(a)
	for _, c := range s.Caches {
		if c.Protocol().IsDirty(c.State(b)) {
			if v, ok := c.ReadWord(a); ok {
				return v
			}
		}
	}
	return s.Mem.ReadWord(a)
}

func TestCacheLockExclusion(t *testing.T) {
	mutualExclusion(t, "bitar", CacheLock, 4, 20)
}

func TestTASExclusionAcrossProtocols(t *testing.T) {
	for _, name := range []string{"goodman", "synapse", "illinois", "yen", "berkeley", "bitar"} {
		t.Run(name, func(t *testing.T) {
			mutualExclusion(t, name, TAS, 3, 10)
		})
	}
}

func TestTTASExclusionAcrossProtocols(t *testing.T) {
	for _, name := range all.Everything {
		if name == "writethrough" {
			continue // no cache-held atomicity; uses TASMemory below
		}
		t.Run(name, func(t *testing.T) {
			mutualExclusion(t, name, TTAS, 3, 10)
		})
	}
}

func TestTASMemoryExclusion(t *testing.T) {
	for _, name := range []string{"writethrough", "rudolph", "bitar"} {
		t.Run(name, func(t *testing.T) {
			mutualExclusion(t, name, TASMemory, 3, 8)
		})
	}
}

func TestCacheLockBeatsTTASOnBusTraffic(t *testing.T) {
	// The headline claim: with contention, the paper's scheme puts no
	// retries on the bus, while TTAS storms it on every handoff.
	const procs, iters = 4, 12
	traffic := func(scheme Scheme) int64 {
		s := mkSystem(t, "bitar", procs)
		lock := addr.Addr(0)
		ws := make([]func(*sim.Proc), procs)
		for i := range ws {
			ws[i] = func(p *sim.Proc) {
				for k := 0; k < iters; k++ {
					Acquire(p, scheme, lock)
					p.Compute(30)
					Release(p, scheme, lock)
				}
			}
		}
		if err := s.Run(ws); err != nil {
			t.Fatal(err)
		}
		return s.Counts.Get("bus.cycles")
	}
	lockCycles := traffic(CacheLock)
	ttasCycles := traffic(TTAS)
	if lockCycles >= ttasCycles {
		t.Errorf("cache lock bus cycles (%d) not below TTAS (%d)", lockCycles, ttasCycles)
	}
}

func TestAtomicAddMethods(t *testing.T) {
	type tc struct {
		proto  string
		method RMWMethod
	}
	cases := []tc{
		{"bitar", MethodMemoryHold},
		{"bitar", MethodCacheHold},
		{"bitar", MethodOptimistic},
		{"bitar", MethodLockState},
		{"illinois", MethodCacheHold},
		{"illinois", MethodOptimistic},
		{"goodman", MethodCacheHold},
		{"writethrough", MethodMemoryHold},
	}
	for _, c := range cases {
		t.Run(c.proto+"/"+c.method.String(), func(t *testing.T) {
			const procs, iters = 3, 12
			s := mkSystem(t, c.proto, procs)
			a := s.Geometry().Base(2)
			ws := make([]func(*sim.Proc), procs)
			for i := range ws {
				ws[i] = func(p *sim.Proc) {
					for k := 0; k < iters; k++ {
						AtomicAdd(p, c.method, a, 1)
					}
				}
			}
			if err := s.Run(ws); err != nil {
				t.Fatal(err)
			}
			if got := latest(s, a); got != procs*iters {
				t.Errorf("counter = %d, want %d", got, procs*iters)
			}
		})
	}
}

func TestOptimisticRetries(t *testing.T) {
	// Under contention the optimistic method must sometimes abort.
	const procs, iters = 4, 30
	s := mkSystem(t, "illinois", procs)
	a := s.Geometry().Base(0)
	ws := make([]func(*sim.Proc), procs)
	for i := range ws {
		ws[i] = func(p *sim.Proc) {
			for k := 0; k < iters; k++ {
				AtomicAdd(p, MethodOptimistic, a, 1)
			}
		}
	}
	if err := s.Run(ws); err != nil {
		t.Fatal(err)
	}
	if got := latest(s, a); got != procs*iters {
		t.Fatalf("counter = %d, want %d", got, procs*iters)
	}
	var retries int64
	for _, p := range s.Procs {
		retries += p.Counts.Get("sync.optimistic-retry") + p.Counts.Get("rmw.abort")
	}
	if retries == 0 {
		t.Log("note: no optimistic aborts observed (low contention)")
	}
}

func TestBarrierPhases(t *testing.T) {
	for _, c := range []struct {
		proto  string
		scheme Scheme
	}{
		{"bitar", CacheLock},
		{"illinois", TTAS},
	} {
		t.Run(c.proto, func(t *testing.T) {
			const procs, phases = 4, 6
			s := mkSystem(t, c.proto, procs)
			g := s.Geometry()
			b := NewBarrier(procs, c.scheme, g.Base(0), g.Base(4))
			// Each processor writes its phase marker, waits, then
			// checks that everyone reached the same phase.
			marks := g.Base(8)
			var bad int
			ws := make([]func(*sim.Proc), procs)
			for i := range ws {
				i := i
				ws[i] = func(p *sim.Proc) {
					for ph := uint64(1); ph <= phases; ph++ {
						p.Write(marks+addr.Addr(i%g.BlockWords), ph)
						p.Compute(int64(3 * (i + 1)))
						b.Wait(p)
						for j := 0; j < procs && j < g.BlockWords; j++ {
							if got := p.Read(marks + addr.Addr(j)); got < ph {
								bad++
							}
						}
						b.Wait(p) // second barrier so writers can't race ahead
					}
				}
			}
			if err := s.Run(ws); err != nil {
				t.Fatal(err)
			}
			if bad != 0 {
				t.Errorf("%d stale phase markers observed across the barrier", bad)
			}
		})
	}
}

func TestBarrierPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBarrier(0) did not panic")
		}
	}()
	NewBarrier(0, CacheLock, 0, 4)
}

func TestRWLockExclusionAndSharing(t *testing.T) {
	const writers, readers, iters = 2, 3, 10
	s := mkSystem(t, "bitar", writers+readers)
	g := s.Geometry()
	l := NewRWLock(CacheLock, g.Base(0), g.Base(4))
	dataA, dataB := g.Base(8), g.Base(12)
	var torn int
	ws := make([]func(*sim.Proc), writers+readers)
	for i := 0; i < writers; i++ {
		ws[i] = func(p *sim.Proc) {
			for k := 1; k <= iters; k++ {
				l.Lock(p)
				// Write a pair that must always be observed together.
				v := p.Read(dataA) + 1
				p.Write(dataA, v)
				p.Compute(5)
				p.Write(dataB, v)
				l.Unlock(p)
				p.Compute(7)
			}
		}
	}
	for i := 0; i < readers; i++ {
		ws[writers+i] = func(p *sim.Proc) {
			for k := 0; k < iters*2; k++ {
				l.RLock(p)
				a := p.Read(dataA)
				p.Compute(3)
				b := p.Read(dataB)
				if a != b {
					torn++
				}
				l.RUnlock(p)
				p.Compute(4)
			}
		}
	}
	if err := s.Run(ws); err != nil {
		t.Fatal(err)
	}
	if torn != 0 {
		t.Errorf("%d torn reads observed under the RW lock", torn)
	}
	if got := latest(s, dataA); got != writers*iters {
		t.Errorf("dataA = %d, want %d", got, writers*iters)
	}
}
