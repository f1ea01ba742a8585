package workload_test

// The generator goldens freeze every Build generator's run as sha256
// digests, so the blocking forms can later be retired against an
// oracle as strong as TestDirectMatchesShim. Regenerate after an
// intentional behaviour change with
//
//	go test ./internal/workload/ -run TestBuildGoldens -update

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
	"cachesync/internal/protocol"
	"cachesync/internal/protocol/all"
	"cachesync/internal/sim"
	"cachesync/internal/syncprim"
	"cachesync/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/build_goldens.txt")

const goldenFile = "testdata/build_goldens.txt"

// goldenGens lists every generator with a Build form. Generators
// without a Seed field derive their parameters from the seed instead,
// so each seed still exercises a distinct run.
var goldenGens = []struct {
	name string
	make func(seed int64, scheme syncprim.Scheme) builder
}{
	{"mixed", func(seed int64, _ syncprim.Scheme) builder {
		return workload.Mixed{Ops: 400, SharedBlocks: 8, PrivBlocks: 24,
			SharedFrac: 0.3, WriteFrac: 0.35, Seed: seed}
	}},
	{"lock", func(seed int64, sc syncprim.Scheme) builder {
		return workload.LockContention{Locks: 2, Iters: 25, HoldCycles: 20,
			ThinkCycles: 10, CSWrites: 2, Scheme: sc, Seed: seed}
	}},
	{"pc", func(seed int64, sc syncprim.Scheme) builder {
		return workload.ProducerConsumer{Items: 10 + 10*int(seed), WritesPerItem: 2 + 2*int(seed), Scheme: sc}
	}},
	{"queues", func(seed int64, sc syncprim.Scheme) builder {
		return workload.ServiceQueues{Requests: 15, Scheme: sc, Seed: seed}
	}},
	{"privateruns", func(seed int64, _ syncprim.Scheme) builder {
		return workload.PrivateRuns{Blocks: 12, Sweeps: 4, WriteBack: 0.5, Static: true, Seed: seed}
	}},
	{"statesave", func(seed int64, _ syncprim.Scheme) builder {
		return workload.StateSave{Switches: 5 + 5*int(seed), StateBlocks: 2 + 2*int(seed)}
	}},
	{"lockdata", func(seed int64, sc syncprim.Scheme) builder {
		return workload.LockedData{Locks: 2, Iters: 12, Records: 4, Instrs: 3,
			Think: 8, Scheme: sc, Seed: seed}
	}},
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

// TestBuildGoldens checks every Build generator x protocol x seed
// against the committed digests, on both execution forms: the
// blocking Build form the goldens freeze, and the Program form that
// must reproduce it.
func TestBuildGoldens(t *testing.T) {
	const procs = 4
	var want map[string]string
	if !*update {
		want = readGoldens(t)
	}
	var got []string
	for _, name := range all.Everything {
		scheme := syncprim.SchemeFor(protocol.MustNew(name))
		for _, g := range goldenGens {
			for _, seed := range []int64{1, 2} {
				key := fmt.Sprintf("%s/%s/seed%d", name, g.name, seed)
				w := g.make(seed, scheme)
				blocking := runDigest(t, name, procs, func(s *sim.System, l workload.Layout) error {
					return s.Run(w.Build(l, procs))
				})
				got = append(got, key+" "+blocking)
				if *update {
					continue
				}
				if blocking != want[key] {
					t.Errorf("%s Build:\n  got  %s\n  want %s", key, blocking, want[key])
				}
				direct := runDigest(t, name, procs, func(s *sim.System, l workload.Layout) error {
					return s.RunPrograms(w.Programs(l, procs))
				})
				if direct != want[key] {
					t.Errorf("%s Programs:\n  got  %s\n  want %s", key, direct, want[key])
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
