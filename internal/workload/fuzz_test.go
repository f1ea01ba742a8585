package workload

import (
	"testing"

	"cachesync/internal/addr"
	"cachesync/internal/cache"
	"cachesync/internal/coherence"
	"cachesync/internal/protocol"
	"cachesync/internal/protocol/all"
	"cachesync/internal/sim"
)

// FuzzWorkloadReplay fuzzes the workload-parameter space: any
// (protocol, processor count, op count, sharing mix, seed) must build
// a workload that the engine replays to quiescence — no deadlock, no
// panic — and that leaves the machine coherent under the full
// invariant suite.
func FuzzWorkloadReplay(f *testing.F) {
	f.Add(uint8(4), uint8(11), uint16(60), uint8(76), uint8(89), int64(1))
	f.Add(uint8(1), uint8(0), uint16(1), uint8(0), uint8(255), int64(7))
	f.Add(uint8(3), uint8(5), uint16(200), uint8(255), uint8(0), int64(42))
	f.Add(uint8(8), uint8(3), uint16(33), uint8(128), uint8(128), int64(-9))
	f.Add(uint8(2), uint8(12), uint16(80), uint8(200), uint8(120), int64(5)) // protoRaw 12 = locke

	f.Fuzz(func(t *testing.T, procsRaw, protoRaw uint8, opsRaw uint16, sharedRaw, writeRaw uint8, seed int64) {
		procs := 1 + int(procsRaw)%4
		ops := 1 + int(opsRaw)%64
		name := all.Everything[int(protoRaw)%len(all.Everything)]
		p := protocol.MustNew(name)

		cfg := sim.DefaultConfig(p)
		cfg.Procs = procs
		if p.Features().OneWordBlocks {
			cfg.Geometry = addr.MustGeometry(1, 1)
		}
		cfg.Cache = cache.Config{Sets: 1, Ways: 8} // small: forces evictions
		s := sim.New(cfg)
		l := Layout{G: s.Geometry()}

		w := Mixed{
			Ops:          ops,
			SharedBlocks: 4,
			PrivBlocks:   8,
			SharedFrac:   float64(sharedRaw) / 255,
			WriteFrac:    float64(writeRaw) / 255,
			Seed:         seed,
		}
		if err := s.RunPrograms(w.Programs(l, procs)); err != nil {
			t.Fatalf("%s procs=%d ops=%d shared=%.2f write=%.2f seed=%d: replay failed: %v",
				name, procs, ops, w.SharedFrac, w.WriteFrac, seed, err)
		}
		for _, v := range coherence.Check(s) {
			t.Errorf("%s procs=%d ops=%d shared=%.2f write=%.2f seed=%d: %s",
				name, procs, ops, w.SharedFrac, w.WriteFrac, seed, v)
		}
	})
}
