package workload

import (
	"testing"

	"cachesync/internal/addr"
	"cachesync/internal/protocol"
	"cachesync/internal/protocol/all"
	"cachesync/internal/sim"
	"cachesync/internal/syncprim"
)

func mk(t *testing.T, name string, procs, ways int) (*sim.System, Layout) {
	t.Helper()
	p := protocol.MustNew(name)
	cfg := sim.DefaultConfig(p)
	cfg.Procs = procs
	cfg.Cache.Ways = ways
	if p.Features().OneWordBlocks {
		cfg.Geometry = addr.MustGeometry(1, 1)
	}
	s := sim.New(cfg)
	return s, Layout{G: s.Geometry()}
}

func TestLayoutSeparation(t *testing.T) {
	l := Layout{G: addr.MustGeometry(4, 4)}
	if l.G.BlockOf(l.LockAddr(0)) == l.SharedBlock(0) {
		t.Error("lock and shared regions overlap")
	}
	if l.PrivateBlock(0, 0) == l.PrivateBlock(1, 0) {
		t.Error("private regions overlap between processors")
	}
	if l.SharedBlock(4095) >= l.PrivateBlock(0, 0) {
		t.Error("shared region runs into private region")
	}
}

func TestProducerConsumerAllSchemes(t *testing.T) {
	for _, scheme := range []syncprim.Scheme{syncprim.CacheLock, syncprim.TAS, syncprim.TTAS} {
		t.Run(scheme.String(), func(t *testing.T) {
			s, l := mk(t, "bitar", 2, 64)
			w := ProducerConsumer{Items: 6, WritesPerItem: 3, Scheme: scheme}
			if err := s.RunPrograms(w.Programs(l, 2)); err != nil {
				t.Fatal(err)
			}
			if s.Counts.Get("bus.cycles") == 0 {
				t.Error("no bus activity")
			}
		})
	}
}

func TestLockContentionCompletes(t *testing.T) {
	for _, name := range []string{"bitar", "illinois", "goodman"} {
		t.Run(name, func(t *testing.T) {
			s, l := mk(t, name, 4, 64)
			scheme := syncprim.SchemeFor(s.Protocol())
			w := LockContention{Locks: 2, Iters: 8, HoldCycles: 10, ThinkCycles: 5, CSWrites: 2, Scheme: scheme, Seed: 3}
			if err := s.RunPrograms(w.Programs(l, 4)); err != nil {
				t.Fatal(err)
			}
			var acquires int64
			for _, p := range s.Procs {
				acquires += p.Counts.Get("sync.acquire")
			}
			if acquires != 4*8 {
				t.Errorf("acquires = %d, want 32", acquires)
			}
		})
	}
}

func TestLockContentionOneWordBlocks(t *testing.T) {
	s, l := mk(t, "rudolph", 3, 64)
	w := LockContention{Locks: 1, Iters: 5, HoldCycles: 5, CSWrites: 2,
		Scheme: syncprim.SchemeFor(s.Protocol()), Seed: 1}
	if err := s.RunPrograms(w.Programs(l, 3)); err != nil {
		t.Fatal(err)
	}
}

func TestServiceQueuesCompletes(t *testing.T) {
	for _, name := range []string{"bitar", "berkeley"} {
		t.Run(name, func(t *testing.T) {
			s, l := mk(t, name, 4, 64)
			w := ServiceQueues{Requests: 6, Scheme: syncprim.SchemeFor(s.Protocol()), Seed: 5}
			if err := s.RunPrograms(w.Programs(l, 4)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMixedDeterministicAndRuns(t *testing.T) {
	run := func() int64 {
		s, l := mk(t, "illinois", 4, 16)
		w := Mixed{Ops: 120, SharedBlocks: 8, PrivBlocks: 16, SharedFrac: 0.3, WriteFrac: 0.35, Seed: 9}
		if err := s.RunPrograms(w.Programs(l, 4)); err != nil {
			t.Fatal(err)
		}
		return s.Counts.Get("bus.cycles")
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("mixed workload not deterministic: %d vs %d bus cycles", a, b)
	}
	if a == 0 {
		t.Error("no bus traffic")
	}
}

func TestPrivateRunsStaticVsDynamic(t *testing.T) {
	// Feature 5: under Yen (static), ReadEx must remove the upgrade
	// transactions that plain reads pay.
	traffic := func(static bool) int64 {
		s, l := mk(t, "yen", 2, 64)
		w := PrivateRuns{Blocks: 16, Sweeps: 1, WriteBack: 1.0, Static: static, Seed: 2}
		if err := s.RunPrograms(w.Programs(l, 2)); err != nil {
			t.Fatal(err)
		}
		return s.Bus.Counts.Get("bus.upgrade")
	}
	if up := traffic(true); up != 0 {
		t.Errorf("static read-for-write still paid %d upgrades", up)
	}
	if up := traffic(false); up == 0 {
		t.Error("plain reads should pay upgrades on the later writes")
	}
}

func TestStateSaveUsesWriteNoFetch(t *testing.T) {
	s, l := mk(t, "bitar", 2, 64)
	w := StateSave{Switches: 4, StateBlocks: 3}
	if err := s.RunPrograms(w.Programs(l, 2)); err != nil {
		t.Fatal(err)
	}
	if got := s.Bus.Counts.Get("bus.writenofetch"); got == 0 {
		t.Error("state save did not use write-without-fetch")
	}
	if got := s.Bus.Counts.Get("bus.read") + s.Bus.Counts.Get("bus.readx"); got != 0 {
		t.Errorf("state save fetched %d blocks under Feature 9", got)
	}
}

func TestAllWorkloadsAllProtocolsSmoke(t *testing.T) {
	for _, name := range all.Everything {
		name := name
		t.Run(name, func(t *testing.T) {
			s, l := mk(t, name, 3, 32)
			scheme := syncprim.SchemeFor(s.Protocol())
			ps := LockContention{Locks: 1, Iters: 3, HoldCycles: 5, CSWrites: 1, Scheme: scheme, Seed: 7}.Programs(l, 3)
			if err := s.RunPrograms(ps); err != nil {
				t.Fatalf("lockcontention: %v", err)
			}
			s2, l2 := mk(t, name, 3, 32)
			if err := s2.RunPrograms(Mixed{Ops: 60, SharedBlocks: 4, PrivBlocks: 8, SharedFrac: 0.4, WriteFrac: 0.3, Seed: 11}.Programs(l2, 3)); err != nil {
				t.Fatalf("mixed: %v", err)
			}
			s3, l3 := mk(t, name, 3, 32)
			if err := s3.RunPrograms(StateSave{Switches: 2, StateBlocks: 2}.Programs(l3, 3)); err != nil {
				t.Fatalf("statesave: %v", err)
			}
		})
	}
}
