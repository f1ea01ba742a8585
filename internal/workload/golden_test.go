package workload_test

// The generator goldens freeze every generator's run as sha256
// digests. They were recorded from the blocking closures the
// generators were first written as, before those were retired, and
// every Programs form must reproduce them. Regenerate after an
// intentional behaviour change with
//
//	go test ./internal/workload/ -run TestGeneratorGoldens -update

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"sort"
	"strings"
	"testing"

	"cachesync/internal/addr"
	"cachesync/internal/cache"
	"cachesync/internal/protocol"
	"cachesync/internal/protocol/all"
	"cachesync/internal/sim"
	"cachesync/internal/syncprim"
	"cachesync/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/generator_goldens.txt")

const goldenFile = "testdata/generator_goldens.txt"

// builder is any workload generator.
type builder interface {
	Programs(l workload.Layout, procs int) []sim.Program
}

// blocking wraps each program in a blocking closure that issues its
// ops through Proc.Do, so System.Run's coroutine adapter carries the
// op stream RunPrograms steps inline.
func blocking(progs []sim.Program) []func(*sim.Proc) {
	ws := make([]func(*sim.Proc), len(progs))
	for i, prog := range progs {
		if prog == nil {
			continue
		}
		ws[i] = func(p *sim.Proc) {
			var r sim.Result
			for {
				op, ok := prog.Next(p, r)
				if !ok {
					return
				}
				r = p.Do(op)
			}
		}
	}
	return ws
}

func newDiffSystem(name string, procs int) *sim.System {
	p := protocol.MustNew(name)
	cfg := sim.DefaultConfig(p)
	cfg.Procs = procs
	if p.Features().OneWordBlocks {
		cfg.Geometry = addr.MustGeometry(1, 1)
	}
	// Small caches force evictions, so the digests also cover the
	// victim/flush paths.
	cfg.Cache = cache.Config{Sets: 1, Ways: 16}
	return sim.New(cfg)
}

// goldenGens lists every generator. Generators without a Seed field
// derive their parameters from the seed instead, so each seed still
// exercises a distinct run. Every generator is frozen at seeds 1-3;
// extra lists the further seeds TestDirectMatchesShim runs.
var goldenGens = []struct {
	name  string
	make  func(seed int64, scheme syncprim.Scheme) builder
	extra []int64
}{
	{"mixed", func(seed int64, _ syncprim.Scheme) builder {
		return workload.Mixed{Ops: 400, SharedBlocks: 8, PrivBlocks: 24,
			SharedFrac: 0.3, WriteFrac: 0.35, Seed: seed}
	}, nil},
	{"lock", func(seed int64, sc syncprim.Scheme) builder {
		return workload.LockContention{Locks: 2, Iters: 25, HoldCycles: 20,
			ThinkCycles: 10, CSWrites: 2, Scheme: sc, Seed: seed}
	}, nil},
	{"pc", func(seed int64, sc syncprim.Scheme) builder {
		return workload.ProducerConsumer{Items: 10 + 10*int(seed), WritesPerItem: 2 + 2*int(seed), Scheme: sc}
	}, nil},
	{"queues", func(seed int64, sc syncprim.Scheme) builder {
		return workload.ServiceQueues{Requests: 15, Scheme: sc, Seed: seed}
	}, []int64{7}},
	{"privateruns", func(seed int64, _ syncprim.Scheme) builder {
		return workload.PrivateRuns{Blocks: 12, Sweeps: 4, WriteBack: 0.5, Static: true, Seed: seed}
	}, []int64{5}},
	{"statesave", func(seed int64, _ syncprim.Scheme) builder {
		return workload.StateSave{Switches: 5 + 5*int(seed), StateBlocks: 2 + 2*int(seed)}
	}, nil},
	{"lockdata", func(seed int64, sc syncprim.Scheme) builder {
		return workload.LockedData{Locks: 2, Iters: 12, Records: 4, Instrs: 3,
			Think: 8, Scheme: sc, Seed: seed}
	}, []int64{11}},
}

// runDigest runs one generator form on a fresh differential machine
// and renders its outcome as one golden line: final clock plus sha256
// digests of the event log, the stats snapshot, every cache image, and
// the memory image of each block the run touched.
func runDigest(t *testing.T, protoName string, procs int, run func(*sim.System, workload.Layout) error) string {
	t.Helper()
	s := newDiffSystem(protoName, procs)
	log := s.AttachLog(0)
	if err := run(s, workload.Layout{G: s.Geometry()}); err != nil {
		t.Fatalf("run: %v", err)
	}

	sum := func(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }
	logH := sha256.New()
	blocks := map[addr.Block]bool{}
	for _, e := range log.Entries {
		fmt.Fprintln(logH, e.String())
		blocks[addr.Block(e.Block)] = true
	}

	snap := s.Stats().Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	statsH := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(statsH, "%s=%d\n", k, snap[k])
	}

	cacheH := sha256.New()
	for i, c := range s.Caches {
		for _, ln := range c.Snapshot() {
			fmt.Fprintf(cacheH, "%d %d %d %v\n", i, ln.Block, ln.State, ln.Data)
			blocks[ln.Block] = true
		}
	}

	order := make([]addr.Block, 0, len(blocks))
	for b := range blocks {
		order = append(order, b)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	memH := sha256.New()
	for _, b := range order {
		fmt.Fprintf(memH, "%d %v\n", b, s.Mem.ReadBlock(b))
	}

	return fmt.Sprintf("clock=%d log=%s stats=%s caches=%s mem=%s",
		s.Clock(), sum(logH), sum(statsH), sum(cacheH), sum(memH))
}

func readGoldens(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, val, ok := strings.Cut(sc.Text(), " "); ok {
			out[key] = val
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGeneratorGoldens checks every generator x protocol x seed's
// Programs run against the committed digests.
func TestGeneratorGoldens(t *testing.T) {
	const procs = 4
	var want map[string]string
	if !*update {
		want = readGoldens(t)
	}
	var got []string
	for _, name := range all.Everything {
		scheme := syncprim.SchemeFor(protocol.MustNew(name))
		for _, g := range goldenGens {
			for _, seed := range append([]int64{1, 2, 3}, g.extra...) {
				key := fmt.Sprintf("%s/%s/seed%d", name, g.name, seed)
				w := g.make(seed, scheme)
				d := runDigest(t, name, procs, func(s *sim.System, l workload.Layout) error {
					return s.RunPrograms(w.Programs(l, procs))
				})
				got = append(got, key+" "+d)
				if !*update && d != want[key] {
					t.Errorf("%s:\n  got  %s\n  want %s", key, d, want[key])
				}
			}
		}
	}
	if *update {
		if err := os.WriteFile(goldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d entries, the suite runs %d", goldenFile, len(want), len(got))
	}
}

// TestDirectMatchesShim is the differential gate for System.Run's
// coroutine adapter: for every protocol, a generator's programs driven
// as blocking closures must reproduce the direct RunPrograms run
// exactly — same bus transactions at the same cycles, same final
// machine state, same counters.
func TestDirectMatchesShim(t *testing.T) {
	const procs = 4
	diff := func(t *testing.T, name string, w builder) {
		direct := runDigest(t, name, procs, func(s *sim.System, l workload.Layout) error {
			return s.RunPrograms(w.Programs(l, procs))
		})
		shim := runDigest(t, name, procs, func(s *sim.System, l workload.Layout) error {
			return s.Run(blocking(w.Programs(l, procs)))
		})
		if shim != direct {
			t.Errorf("blocking run differs from direct run:\n  shim   %s\n  direct %s", shim, direct)
		}
	}
	for _, name := range all.Everything {
		name := name
		scheme := syncprim.SchemeFor(protocol.MustNew(name))
		for _, seed := range []int64{1, 2, 3} {
			seed := seed
			t.Run(fmt.Sprintf("%s/mixed/seed%d", name, seed), func(t *testing.T) {
				t.Parallel()
				diff(t, name, workload.Mixed{Ops: 400, SharedBlocks: 8,
					PrivBlocks: 24, SharedFrac: 0.3, WriteFrac: 0.35, Seed: seed})
			})
			t.Run(fmt.Sprintf("%s/lock/seed%d", name, seed), func(t *testing.T) {
				t.Parallel()
				diff(t, name, workload.LockContention{Locks: 2, Iters: 25,
					HoldCycles: 20, ThinkCycles: 10, CSWrites: 2, Scheme: scheme, Seed: seed})
			})
		}
		t.Run(name+"/pc", func(t *testing.T) {
			t.Parallel()
			diff(t, name, workload.ProducerConsumer{Items: 20, WritesPerItem: 4, Scheme: scheme})
		})
		t.Run(name+"/queues", func(t *testing.T) {
			t.Parallel()
			diff(t, name, workload.ServiceQueues{Requests: 15, Scheme: scheme, Seed: 7})
		})
		t.Run(name+"/privateruns", func(t *testing.T) {
			t.Parallel()
			diff(t, name, workload.PrivateRuns{Blocks: 12, Sweeps: 4, WriteBack: 0.5, Static: true, Seed: 5})
		})
		t.Run(name+"/statesave", func(t *testing.T) {
			t.Parallel()
			diff(t, name, workload.StateSave{Switches: 10, StateBlocks: 4})
		})
		t.Run(name+"/lockdata", func(t *testing.T) {
			t.Parallel()
			diff(t, name, workload.LockedData{Locks: 2, Iters: 12,
				Records: 4, Instrs: 3, Think: 8, Scheme: scheme, Seed: 11})
		})
	}
}
