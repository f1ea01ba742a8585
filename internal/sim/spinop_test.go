package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"cachesync/internal/addr"
	"cachesync/internal/aquarius"
	"cachesync/internal/cache"
	"cachesync/internal/interconnect"
	"cachesync/internal/protocol"
	"cachesync/internal/protocol/all"
	"cachesync/internal/sim"
	"cachesync/internal/stats"
)

// waitStep is one planned step of a waiter: an op, or a wait for the
// word at a to equal (eq) or differ from v, pausing between reads.
type waitStep struct {
	op    sim.Op
	tas   bool // op is the lock's test-and-set
	wait  bool
	a     addr.Addr
	v     uint64
	eq    bool
	pause int64
	class interconnect.Class
}

func (st *waitStep) passes(v uint64) bool { return (v == st.v) == st.eq }

// waiter is a test program built from busy-wait loops. With spin set
// each wait is one SpinOp; without it each wait is the explicit loop
// of ReadOp and ComputeOp the SpinOp replaces (no ComputeOp for a
// zero pause), which the engine steps event by event and never arms.
// Both forms draw the same seeded decisions at the same points, so
// they must produce the same run.
//
// Processor i < n owns hops i, i+n, i+2n, ... of a token: it waits
// for the token to read h, takes a test-and-test-and-set lock,
// touches data, releases, passes the token on, and sometimes waits
// for the next owner to move the token (a not-equal wait). On a tiered
// machine every third hand-off goes through a data-class word that
// the lower tier serves. A spectator processor, when present, takes
// the same lock and hammers other words — one of them on the token's
// block, so the token's line changes state while its value stays —
// producing bus grants that disarm the waiters.
type waiter struct {
	spin     bool
	rng      *rand.Rand
	id, n    int
	hops     int
	spectate int // spectator rounds left
	l        waitLayout

	queue   []waitStep
	h       int // next hop to own
	lastTAS bool

	// explicit-loop state of the wait in progress
	cur     waitStep
	inWait  bool
	readOut bool // the wait's last op was its read
}

type waitLayout struct {
	token, tokenData, falseShare, lock, data, other addr.Addr
	tiered                                          bool
}

func newWaitLayout(g addr.Geometry, tiered bool) waitLayout {
	blk := func(i int) addr.Addr { return g.Base(addr.Block(i)) }
	l := waitLayout{token: blk(1), falseShare: blk(1) + 1, lock: blk(3), data: blk(4),
		other: blk(6), tokenData: blk(20), tiered: tiered}
	if g.BlockWords == 1 {
		l.falseShare = blk(2)
	}
	return l
}

func (w *waiter) pause() int64 { return []int64{0, 1, 2, 2, 3, 5}[w.rng.Intn(6)] }

func (w *waiter) op(o sim.Op) { w.queue = append(w.queue, waitStep{op: o}) }
func (w *waiter) tas() {
	w.queue = append(w.queue, waitStep{op: sim.RMWOp(w.l.lock, setOne), tas: true})
}
func setOne(uint64) uint64               { return 1 }
func syncW(a addr.Addr, v uint64) sim.Op { return sim.WriteOp(a, v).WithClass(interconnect.Sync) }

func (w *waiter) wait(a addr.Addr, v uint64, eq bool, class interconnect.Class) {
	w.queue = append(w.queue, waitStep{wait: true, a: a, v: v, eq: eq, pause: w.pause(), class: class})
}

// tokenWord is the word and class hop h's token lives in.
func (w *waiter) tokenWord(h int) (addr.Addr, interconnect.Class) {
	if w.l.tiered && h%3 == 2 {
		return w.l.tokenData, interconnect.Data
	}
	return w.l.token, interconnect.Sync
}

func (w *waiter) planHop() {
	tok, cls := w.tokenWord(w.h)
	w.wait(tok, uint64(w.h), true, cls)
	w.tas()
	for k := w.rng.Intn(3); k >= 0; k-- {
		w.op(syncW(w.l.data+addr.Addr(k%2), uint64(w.h)))
	}
	if w.rng.Intn(2) == 0 {
		w.op(sim.ComputeOp(int64(1 + w.rng.Intn(20))))
	}
	w.op(syncW(w.l.lock, 0))
	next, ncls := w.tokenWord(w.h + 1)
	w.op(sim.WriteOp(next, uint64(w.h+1)).WithClass(ncls))
	if after, _ := w.tokenWord(w.h + 2); w.n > 1 && w.h+1 < w.hops && after == next && w.rng.Intn(2) == 0 {
		// Wait for the next owner to move the token on.
		w.wait(next, uint64(w.h+1), false, ncls)
	}
	w.h += w.n
}

func (w *waiter) planSpectator() {
	switch w.rng.Intn(6) {
	case 0:
		w.tas()
		w.op(sim.ComputeOp(int64(5 + w.rng.Intn(30))))
		w.op(syncW(w.l.lock, 0))
	case 1:
		w.op(syncW(w.l.falseShare, uint64(w.rng.Intn(4))))
	case 2:
		w.op(sim.ReadOp(w.l.falseShare).WithClass(interconnect.Sync))
	default:
		a := w.l.other + addr.Addr(w.rng.Intn(8))
		if w.rng.Intn(2) == 0 {
			w.op(syncW(a, uint64(w.rng.Intn(100))))
		} else {
			w.op(sim.ReadOp(a).WithClass(interconnect.Sync))
		}
	}
	w.op(sim.ComputeOp(int64(1 + w.rng.Intn(15))))
	w.spectate--
}

func (w *waiter) read() (sim.Op, bool) {
	w.readOut = true
	return sim.ReadOp(w.cur.a).WithClass(w.cur.class), true
}

func (w *waiter) Next(p *sim.Proc, last sim.Result) (sim.Op, bool) {
	if w.inWait {
		switch {
		case !w.readOut:
			return w.read() // the pause ended
		case !w.cur.passes(last.Value) && w.cur.pause > 0:
			w.readOut = false
			return sim.ComputeOp(w.cur.pause), true
		case !w.cur.passes(last.Value):
			return w.read()
		}
		w.inWait = false
	}
	if w.lastTAS && last.Value != 0 {
		// The test-and-set found the lock held: wait for zero, retry.
		rest := w.queue
		w.queue = nil
		w.wait(w.l.lock, 0, true, interconnect.Sync)
		w.tas()
		w.queue = append(w.queue, rest...)
	}
	for len(w.queue) == 0 {
		switch {
		case w.id < w.n && w.h < w.hops:
			w.planHop()
		case w.id >= w.n && w.spectate > 0:
			w.planSpectator()
		default:
			return sim.Op{}, false
		}
	}
	st := w.queue[0]
	w.queue = w.queue[1:]
	w.lastTAS = st.tas
	if !st.wait {
		return st.op, true
	}
	if w.spin {
		return sim.SpinOp(st.a, st.v, st.eq, st.pause).WithClass(st.class), true
	}
	w.cur, w.inWait = st, true
	return w.read()
}

// spinCase is one randomized machine and workload.
type spinCase struct {
	proto       string
	seed        int64
	procs       int
	tiers       int
	remote      int
	buses       int
	spectator   bool
	hops, specs int
}

func (c spinCase) String() string {
	return fmt.Sprintf("%s/seed%d/p%d/tiers%d/remote%d/buses%d/spectator=%v",
		c.proto, c.seed, c.procs, c.tiers, c.remote, c.buses, c.spectator)
}

func randomSpinCase(rng *rand.Rand) spinCase {
	c := spinCase{
		proto:     all.Everything[rng.Intn(len(all.Everything))],
		seed:      rng.Int63n(1 << 20),
		procs:     2 + rng.Intn(4),
		tiers:     1 + rng.Intn(2),
		buses:     1 + rng.Intn(2),
		spectator: rng.Intn(3) != 0,
		hops:      6 + rng.Intn(20),
		specs:     10 + rng.Intn(60),
	}
	if c.tiers == 2 {
		c.remote = []int{0, 16, 64, 256}[rng.Intn(4)]
	}
	return c
}

// build returns the machine for c: the synchronization-tier System,
// and the routed two-tier machine around it when c.tiers is 2.
func (c spinCase) build() (*sim.System, *aquarius.System) {
	p := protocol.MustNew(c.proto)
	cfg := sim.DefaultConfig(p)
	cfg.Procs = c.procs
	cfg.NumBuses = c.buses
	cfg.Cache = cache.Config{Sets: 1, Ways: 16}
	// Far above any case's length: a wrong skip that stalls a waiter
	// fails fast instead of polling toward the default limit.
	cfg.MaxCycles = 1 << 22
	if p.Features().OneWordBlocks {
		cfg.Geometry = addr.MustGeometry(1, 1)
	}
	if c.tiers < 2 {
		return sim.New(cfg), nil
	}
	ac := aquarius.DefaultConfig(c.procs)
	ac.Sync = cfg
	ac.RemoteCycles = c.remote
	ac.Routed = true
	a := aquarius.New(ac)
	return a.Sync, a
}

func (c spinCase) programs(s *sim.System, spin bool) []sim.Program {
	n := c.procs
	if c.spectator {
		n--
	}
	l := newWaitLayout(s.Geometry(), c.tiers == 2)
	progs := make([]sim.Program, c.procs)
	for i := range progs {
		w := &waiter{spin: spin, rng: rand.New(rand.NewSource(c.seed*31 + int64(i))),
			id: i, n: n, hops: c.hops, l: l, h: i}
		if i >= n {
			w.spectate = c.specs
		}
		progs[i] = w
	}
	return progs
}

// blockingForm drives programs as blocking closures through Proc.Do,
// so System.Run's coroutine adapter carries the same op stream.
func blockingForm(progs []sim.Program) []func(*sim.Proc) {
	ws := make([]func(*sim.Proc), len(progs))
	for i, prog := range progs {
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

// spinDigest renders a finished run: clock, and sha256 digests of the
// bus log, the merged counters (both tiers), every cache image and
// the memory image of every block the run touched.
func spinDigest(s *sim.System, a *aquarius.System, log *sim.EventLog) string {
	sum := func(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }
	logH := sha256.New()
	blocks := map[addr.Block]bool{}
	for _, e := range log.Entries {
		fmt.Fprintln(logH, e.String())
		blocks[addr.Block(e.Block)] = true
	}
	var st *stats.Counters
	if a != nil {
		st = a.Stats()
	} else {
		st = s.Stats()
	}
	snap := st.Snapshot()
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
	return fmt.Sprintf("clock=%d log=%s stats=%s caches=%s mem=%s lock=%d/%.3f",
		s.Clock(), sum(logH), sum(statsH), sum(cacheH), sum(memH),
		s.LockLatency.Count(), s.LockLatency.Mean())
}

// runSpinCase runs c once with the SpinOp or the explicit-loop form,
// through RunPrograms or the blocking Run, and digests the outcome.
func runSpinCase(t *testing.T, c spinCase, spin, blocking bool) string {
	t.Helper()
	s, a := c.build()
	log := s.AttachLog(0)
	progs := c.programs(s, spin)
	var err error
	if blocking {
		err = s.Run(blockingForm(progs))
	} else {
		err = s.RunPrograms(progs)
	}
	if err != nil {
		t.Fatalf("%v (spin=%v blocking=%v): %v", c, spin, blocking, err)
	}
	return spinDigest(s, a, log)
}

// TestSpinOpMatchesReadLoop is the exactness oracle of the SpinOp
// and its bulk skipping: over random protocols, seeds and machines,
// a run whose waits are SpinOps must match, digest for digest, the
// same run written as explicit read/pause loops — on the direct
// engine and through the blocking adapter.
func TestSpinOpMatchesReadLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(20260401))
	n := 120
	if testing.Short() {
		n = 40
	}
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		c := randomSpinCase(rng)
		ref := runSpinCase(t, c, false, false)
		if got := runSpinCase(t, c, true, false); got != ref {
			t.Errorf("%v: SpinOp run differs from the read loop:\n  spin %s\n  loop %s", c, got, ref)
		}
		if got := runSpinCase(t, c, true, true); got != ref {
			t.Errorf("%v: blocking SpinOp run differs from the read loop:\n  spin %s\n  loop %s", c, got, ref)
		}
		seen[fmt.Sprintf("tiers%d", c.tiers)] = true
		seen[fmt.Sprintf("buses%d", c.buses)] = true
	}
	for _, k := range []string{"tiers1", "tiers2", "buses1", "buses2"} {
		if !seen[k] {
			t.Errorf("no case with %s", k)
		}
	}
}

// spinForever waits on a word nothing writes.
type spinForever struct {
	spin bool
	a    addr.Addr
	read bool
}

func (f *spinForever) Next(p *sim.Proc, last sim.Result) (sim.Op, bool) {
	if f.spin {
		return sim.SpinOp(f.a, 1, true, 2), true
	}
	f.read = !f.read
	if f.read {
		return sim.ReadOp(f.a).WithClass(interconnect.Sync), true
	}
	return sim.ComputeOp(2), true
}

// hammer writes a private block a few times, then ends.
type hammer struct {
	a addr.Addr
	n int
}

func (h *hammer) Next(p *sim.Proc, last sim.Result) (sim.Op, bool) {
	if h.n == 0 {
		return sim.Op{}, false
	}
	h.n--
	return sim.WriteOp(h.a+addr.Addr(h.n%4), uint64(h.n)), true
}

func livelockRun(maxCycles int64, spin bool) (*sim.System, error) {
	cfg := sim.DefaultConfig(protocol.MustNew("illinois"))
	cfg.Procs = 3
	cfg.MaxCycles = maxCycles
	s := sim.New(cfg)
	g := s.Geometry()
	err := s.RunPrograms([]sim.Program{
		&spinForever{spin: spin, a: g.Base(1)},
		&hammer{a: g.Base(8), n: 40},
		&spinForever{spin: spin, a: g.Base(1) + 1},
	})
	return s, err
}

// TestSpinOpLivelockFoundAtOnce: a wait on a word nothing writes runs
// into MaxCycles. Under the default 1<<40 the engine must reach it in
// bulk at once; under a small limit it must stop at the same clock,
// with the same counters, as the explicit loop stepped event by event.
func TestSpinOpLivelockFoundAtOnce(t *testing.T) {
	start := time.Now()
	_, err := livelockRun(0, true)
	if err == nil || !strings.Contains(err.Error(), "exceeded 1099511627776 cycles (livelock?)") {
		t.Fatalf("default MaxCycles: got %v, want the livelock error", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("livelock under the default MaxCycles took %v", d)
	}

	for _, max := range []int64{1, 2, 3, 777, 5000, 5001, 5002} {
		sp, errSpin := livelockRun(max, true)
		lp, errLoop := livelockRun(max, false)
		if errSpin == nil || errLoop == nil || errSpin.Error() != errLoop.Error() {
			t.Fatalf("MaxCycles %d: errors differ: spin %v, loop %v", max, errSpin, errLoop)
		}
		if sp.Clock() != lp.Clock() {
			t.Errorf("MaxCycles %d: spin stopped at clock %d, loop at %d", max, sp.Clock(), lp.Clock())
		}
		if a, b := sp.Stats().Snapshot(), lp.Stats().Snapshot(); fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("MaxCycles %d: counters differ:\n  spin %v\n  loop %v", max, a, b)
		}
	}
}
