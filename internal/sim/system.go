// Package sim is the deterministic discrete-event engine that drives
// processors, caches, the broadcast bus, and main memory through a
// workload. The engine executes workloads directly: a Program's Next
// method is called inline from the event loop (no goroutines, no
// channels, no per-op synchronization), so the hot loop is a plain
// single-threaded function. Blocking func(*Proc) workloads run on the
// same loop as iter.Pull coroutines adapted into Programs, and
// produce bit-identical runs.
package sim

import (
	"context"
	"fmt"

	"cachesync/internal/addr"
	"cachesync/internal/bus"
	"cachesync/internal/cache"
	"cachesync/internal/memory"
	"cachesync/internal/protocol"
	"cachesync/internal/stats"
)

// Config assembles a simulated machine.
type Config struct {
	Procs    int
	Protocol protocol.Protocol
	Geometry addr.Geometry
	Cache    cache.Config
	Timing   Timing
	// MaxCycles aborts a runaway simulation (0 means a large default).
	MaxCycles int64
	// NoWaiterPriority disables the reserved most-significant
	// arbitration priority bit for busy-wait re-arbitration (Section
	// E.4) — an ablation switch: waiters then compete at normal
	// priority after an unlock broadcast.
	NoWaiterPriority bool
	// NumBuses selects single- or dual-bus broadcast (Section A.2:
	// "broadcast is currently seen only in single or dual bus
	// systems"). Blocks interleave across buses; every cache snoops
	// every bus (the dual-directory organization). Default 1; at most 2.
	NumBuses int
}

// DefaultConfig returns a 4-processor machine with fully associative
// 64-block caches of 4-word blocks running the given protocol.
func DefaultConfig(p protocol.Protocol) Config {
	return Config{
		Procs:    4,
		Protocol: p,
		Geometry: addr.MustGeometry(4, 4),
		Cache:    cache.Config{Sets: 1, Ways: 64},
		Timing:   DefaultTiming(),
	}
}

// readyQueue tracks which processors have an operation ready to
// dispatch and when. The engine holds at most one ready event per
// processor, so a per-processor time array with a linear minimum scan
// beats a heap on the hot loop: push and remove are single stores, and
// the scan over a handful of entries is branch-predictable. Absent
// entries hold MaxInt64 and lose every comparison; ties keep the first
// (lowest-id) processor, matching the old heap's (time, proc) order.
type readyQueue struct {
	times []int64
	n     int
}

const readyAbsent = int64(1<<63 - 1)

func newReadyQueue(procs int) readyQueue {
	t := make([]int64, procs)
	for i := range t {
		t[i] = readyAbsent
	}
	return readyQueue{times: t}
}

// push marks proc ready at time t; proc must not already be ready.
func (q *readyQueue) push(proc int, t int64) {
	q.times[proc] = t
	q.n++
}

// minProc returns the ready processor with the earliest time (lowest
// id on ties). Call only when n > 0.
func (q *readyQueue) minProc() (proc int, t int64) {
	t = readyAbsent
	for i, ti := range q.times {
		if ti < t {
			proc, t = i, ti
		}
	}
	return proc, t
}

// remove clears proc's ready entry.
func (q *readyQueue) remove(proc int) {
	q.times[proc] = readyAbsent
	q.n--
}

// opCtx is the engine-side state of an in-flight processor operation
// that needs the bus. Contexts live in a fixed per-arbitration-slot
// array (System.ctxs); active marks a slot that holds a queued or
// parked request, playing the role a map membership test used to.
type opCtx struct {
	p          *Proc
	op         procOp
	protoOp    protocol.Op
	pr         protocol.ProcResult
	afterWait  bool // re-arbitrated after an Unlock broadcast (Figure 9)
	active     bool
	rmwOld     uint64
	rmwHaveOld bool

	// arbID is the bus-arbitration identity: the processor's cache
	// for ordinary operations, a distinct virtual requester for a
	// prefetched lock (the busy-wait register arbitrates on its own
	// while the processor keeps issuing other operations).
	arbID    int
	prefetch bool
	start    int64 // issue time, for latency statistics
}

// System is one simulated machine.
type System struct {
	cfg   Config
	proto protocol.Protocol
	tab   *protocol.Table // compiled transition tables; nil = method path
	feats protocol.Features

	Mem *memory.Memory
	// Bus is the first (or only) bus; Buses lists all of them.
	Bus    *bus.Bus
	Buses  []*bus.Bus
	Caches []*cache.Cache
	Procs  []*Proc

	clock   int64 // current event time (may regress across independent buses)
	hwm     int64 // high-water mark of simulated time
	busFree []int64
	ready   readyQueue
	// busDirty invalidates the cached (nextBus, nextGrant) pair: the
	// event loop rescans the buses only after something changed a bus —
	// a new request, a withdrawal, or a served transaction. Processor
	// steps that stay in their cache leave the cache valid.
	busDirty  bool
	nextBus   int
	nextGrant int64
	// ctxs[i] is arbitration slot i: processor i for i < Procs, the
	// busy-wait (prefetch) register of processor i-Procs above that.
	ctxs       []opCtx
	waiters    map[addr.Block][]int // busy-wait parked processors per block
	waiterPool [][]int              // retired waiter slices for reuse
	doneN      int
	started    bool
	armedN     int // processors whose SpinOp is armed (spin.go)

	// txnScratch/txnScratch2 are the pooled bus-transaction records:
	// every transaction the engine issues reuses one of them (two are
	// live at once only inside serveRMWMemory's read+write pair).
	txnScratch  bus.Transaction
	txnScratch2 bus.Transaction

	// lower, when attached, makes the machine two-tier: Instr/Data
	// class references route to it instead of the coherent bus path.
	lower       LowerTier
	strictClass bool
	routeSyncH  *int64
	routeInstrH *int64
	routeDataH  *int64

	Counts      stats.Counters
	busCyclesH  *int64 // cached handles for the per-transaction
	busWordsH   *int64 // bus.cycles / bus.words accounting
	LockLatency stats.Histogram
	log         *EventLog

	// OnTxn, when set, runs after every completed bus transaction
	// (used by the online coherence checker). The system state is
	// quiescent with respect to the transaction when it fires.
	OnTxn func()
}

// countBus charges a completed transaction's cycle and word costs
// through cached counter handles.
func (s *System) countBus(cycles, words int64) {
	if s.busCyclesH == nil {
		s.busCyclesH = s.Counts.Handle("bus.cycles")
		s.busWordsH = s.Counts.Handle("bus.words")
	}
	*s.busCyclesH += cycles
	*s.busWordsH += words
}

// New builds a System from cfg.
func New(cfg Config) *System {
	if cfg.Procs <= 0 {
		panic("sim: need at least one processor")
	}
	if cfg.Protocol == nil {
		panic("sim: nil protocol")
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 1 << 40
	}
	f := cfg.Protocol.Features()
	if f.OneWordBlocks && cfg.Geometry.BlockWords != 1 {
		panic(fmt.Sprintf("sim: protocol %q requires one-word blocks (Section E.4), got %d-word blocks",
			cfg.Protocol.Name(), cfg.Geometry.BlockWords))
	}
	if cfg.NumBuses == 0 {
		cfg.NumBuses = 1
	}
	if cfg.NumBuses < 1 || cfg.NumBuses > 2 {
		panic(fmt.Sprintf("sim: NumBuses must be 1 or 2 (Section A.2), got %d", cfg.NumBuses))
	}
	s := &System{
		cfg:      cfg,
		proto:    cfg.Protocol,
		feats:    f,
		Mem:      memory.New(cfg.Geometry),
		ctxs:     make([]opCtx, 2*cfg.Procs),
		ready:    newReadyQueue(cfg.Procs),
		waiters:  make(map[addr.Block][]int),
		busDirty: true,
		nextBus:  -1,
	}
	if !cfg.Cache.NoTables {
		s.tab = protocol.TableFor(cfg.Protocol)
	}
	for i := 0; i < cfg.NumBuses; i++ {
		s.Buses = append(s.Buses, bus.New())
	}
	s.Bus = s.Buses[0]
	s.busFree = make([]int64, cfg.NumBuses)
	for i := 0; i < cfg.Procs; i++ {
		c := cache.New(i, cfg.Geometry, cfg.Protocol, cfg.Cache, s.Mem)
		s.Caches = append(s.Caches, c)
		for _, b := range s.Buses {
			b.Attach(c)
		}
		s.Procs = append(s.Procs, &Proc{id: i, sys: s})
	}
	return s
}

// busOf returns the bus index serving a block (block-interleaved).
func (s *System) busOf(b addr.Block) int {
	return int(uint64(b) % uint64(len(s.Buses)))
}

// Clock returns the global simulation time in cycles (the high-water
// mark across buses and processors).
func (s *System) Clock() int64 {
	if s.clock > s.hwm {
		s.hwm = s.clock
	}
	return s.hwm
}

// Geometry returns the machine's address geometry.
func (s *System) Geometry() addr.Geometry { return s.cfg.Geometry }

// Protocol returns the protocol instance.
func (s *System) Protocol() protocol.Protocol { return s.proto }

// complete/privilege/isDirty consult the compiled transition tables
// when present, else the protocol methods — the engine's half of the
// table fast path (the caches hold their own table reference).
func (s *System) complete(st protocol.State, op protocol.Op, t *bus.Transaction) protocol.CompleteResult {
	if s.tab != nil {
		return s.tab.Complete(st, op, t)
	}
	return s.proto.Complete(st, op, t)
}

func (s *System) privilege(st protocol.State) protocol.Priv {
	if s.tab != nil {
		return s.tab.Privilege(st)
	}
	return s.proto.Privilege(st)
}

func (s *System) isDirty(st protocol.State) bool {
	if s.tab != nil {
		return s.tab.IsDirty(st)
	}
	return s.proto.IsDirty(st)
}

// Stats merges the counters of the bus, memory, caches, and
// processors with the engine's own counters into one snapshot.
func (s *System) Stats() *stats.Counters {
	var out stats.Counters
	out.Merge(&s.Counts)
	for _, b := range s.Buses {
		out.Merge(&b.Counts)
	}
	out.Merge(&s.Mem.Counts)
	for _, c := range s.Caches {
		out.Merge(&c.Counts)
	}
	for _, p := range s.Procs {
		out.Merge(&p.Counts)
	}
	return &out
}

// run is the event loop.
func (s *System) run(ctx context.Context) error {
	// ctx.Done() is nil for context.Background(), making the per-event
	// cancellation check a single nil comparison on uncancellable runs.
	done := ctx.Done()
	for s.doneN < len(s.Procs) {
		if done != nil {
			// Checked before every event, so the abort lands within
			// one event of ctx expiry.
			select {
			case <-done:
				return fmt.Errorf("sim: run canceled at cycle %d: %w", s.Clock(), ctx.Err())
			default:
			}
		}
		if s.clock > s.hwm {
			s.hwm = s.clock
		}
		if s.hwm > s.cfg.MaxCycles {
			return fmt.Errorf("sim: exceeded %d cycles (livelock?)", s.cfg.MaxCycles)
		}
		// The earliest grantable bus: a bus grants at the later of its
		// free time and the earliest pending request's issue time.
		// Recomputed only after an event touched a bus.
		if s.busDirty {
			s.busDirty = false
			s.nextBus = -1
			for i, b := range s.Buses {
				if !b.HasPending() {
					continue
				}
				g := s.busFree[i]
				if at := b.EarliestRequest(); at > g {
					g = at
				}
				if s.nextBus == -1 || g < s.nextGrant {
					s.nextBus, s.nextGrant = i, g
				}
			}
		}
		rp := -1
		var rt int64
		if s.ready.n > 0 {
			rp, rt = s.ready.minProc()
		}
		switch {
		case rp != -1 && (s.nextBus == -1 || rt <= s.nextGrant):
			s.ready.remove(rp)
			if s.Procs[rp].spin.armed && s.jumpSpin(s.Procs[rp], rt) {
				continue
			}
			s.clock = rt
			if err := s.step(s.Procs[rp], rt); err != nil {
				return err
			}
		case s.nextBus != -1:
			if s.armedN > 0 {
				s.disarmSpinners()
			}
			s.clock = s.nextGrant
			id, ok := s.Buses[s.nextBus].ArbitrateAt(s.nextGrant)
			if !ok {
				return fmt.Errorf("sim: bus %d grant at %d found no eligible request", s.nextBus, s.nextGrant)
			}
			s.busDirty = true
			s.serveBus(&s.ctxs[id])
		default:
			return s.deadlockError()
		}
	}
	return nil
}

func (s *System) deadlockError() error {
	msg := "sim: deadlock:"
	for _, p := range s.Procs {
		if p.status != statusDone {
			msg += fmt.Sprintf(" proc%d=%v", p.id, p.status)
		}
	}
	return fmt.Errorf("%s (all remaining processors are blocked or busy-waiting)", msg)
}

// respond completes the processor's pending operation at time t and
// pulls its next one with an inline Program.Next call, copying the
// wide procOp once, from the program's return value into pending.
func (s *System) respond(p *Proc, t int64, res procRes) {
	if p.pending.kind == opSpin && !p.pending.spinPasses(res.value) {
		s.spinAgain(p, t, false)
		return
	}
	p.now = t
	op, ok := p.prog.Next(p, Result{Value: res.value, OK: res.ok, Now: t})
	if !ok {
		p.pending = procOp{kind: opDone}
	} else {
		p.pending = op.raw
	}
	p.status = statusReady
	s.ready.push(p.id, t)
}

// slot claims processor p's arbitration slot for a new ordinary
// (non-prefetch) bus operation and returns it zeroed. A processor has
// at most one ordinary op in flight, so the slot is necessarily free.
func (s *System) slot(p *Proc) *opCtx {
	ctx := &s.ctxs[p.id]
	*ctx = opCtx{p: p, arbID: p.id}
	return ctx
}

// step dispatches a processor's pending operation at time t. The
// pending op is read through a pointer — procOp is too wide to copy on
// every event — so callees must finish with it before respond installs
// the next one. On a tiered machine (lower attached) memory
// references route by class first; an unroutable reference is an
// error that aborts the run, and so is a lock op (lock-read, prefetch
// or wait: all three carry OpLock) on a protocol without the hardware
// lock.
func (s *System) step(p *Proc, t int64) error {
	op := &p.pending
	if op.op == protocol.OpLock && !s.feats.HardwareLock {
		return fmt.Errorf("sim: protocol %q has no hardware lock; lower locking via syncprim", s.proto.Name())
	}
	switch op.kind {
	case opDone:
		p.status = statusDone
		s.doneN++
	case opCompute:
		n := int64(op.value)
		p.addCompute(n)
		s.respond(p, t+n, procRes{})
	case opSpin:
		return s.stepSpin(p, t, op)
	case opMem:
		p.opStart = t
		if s.lower != nil {
			handled, err := s.routeLower(p, t, op)
			if handled || err != nil {
				return err
			}
		}
		s.startMemOp(p, t, op, op.op)
	case opRMW:
		p.opStart = t
		if s.lower != nil {
			s.countRoute(&s.routeSyncH, "route.sync")
		}
		s.startRMW(p, t, op)
	case opRMWMem:
		p.opStart = t
		if s.lower != nil {
			s.countRoute(&s.routeSyncH, "route.sync")
		}
		ctx := s.slot(p)
		ctx.op = *op
		ctx.protoOp = protocol.OpWrite
		s.queueBus(ctx, false)
	case opTryWrite:
		p.opStart = t
		if s.lower != nil {
			s.countRoute(&s.routeSyncH, "route.sync")
		}
		s.startTryWrite(p, t, op)
	case opBlockWrite:
		p.opStart = t
		if s.lower != nil {
			handled, err := s.routeLower(p, t, op)
			if handled || err != nil {
				return err
			}
		}
		s.startBlockWrite(p, t, op)
	case opIO:
		p.opStart = t
		if s.lower != nil {
			s.countRoute(&s.routeSyncH, "route.sync")
		}
		ctx := s.slot(p)
		ctx.op = *op
		s.queueBus(ctx, false)
	case opLockPrefetch:
		if s.lower != nil {
			s.countRoute(&s.routeSyncH, "route.sync")
		}
		s.startLockPrefetch(p, t, op)
	case opLockWait:
		s.startLockWait(p, t, op)
	default:
		panic(fmt.Sprintf("sim: unknown op kind %d", op.kind))
	}
	return nil
}

// startMemOp probes the cache for a protocol operation; hits complete
// locally, misses queue a bus request. Single-word operations fuse the
// probe with the hit-time data access (cache.ProbeWord), so the common
// hit costs one tag lookup.
func (s *System) startMemOp(p *Proc, t int64, op *procOp, protoOp protocol.Op) {
	c := s.Caches[p.id]
	if protoOp == protocol.OpWriteBlock {
		r := c.Probe(protoOp, op.addr)
		t += int64(s.cfg.Timing.HitCycles)
		if r.Hit {
			s.finishLocal(p, t, op, protoOp)
			return
		}
		s.queueMiss(p, op, protoOp, r)
		return
	}
	r, v := c.ProbeWord(protoOp, op.addr, op.value)
	t += int64(s.cfg.Timing.HitCycles)
	if !r.Hit {
		s.queueMiss(p, op, protoOp, r)
		return
	}
	var res procRes
	res.ok = true
	switch protoOp {
	case protocol.OpRead, protocol.OpReadEx:
		res.value = v
	case protocol.OpLock:
		res.value = v
		s.recordLockAcquired(p, t)
	case protocol.OpUnlock:
		s.Counts.Inc("lock.unlock-silent")
	}
	s.respond(p, t, res)
}

// queueMiss claims the processor's slot for a probe that needs the bus.
func (s *System) queueMiss(p *Proc, op *procOp, protoOp protocol.Op, r protocol.ProcResult) {
	ctx := s.slot(p)
	ctx.op = *op
	ctx.protoOp = protoOp
	ctx.pr = r
	s.queueBus(ctx, false)
}

// finishLocal completes a zero-bus-traffic operation.
func (s *System) finishLocal(p *Proc, t int64, op *procOp, protoOp protocol.Op) {
	c := s.Caches[p.id]
	var res procRes
	switch protoOp {
	case protocol.OpRead, protocol.OpReadEx:
		res.value, _ = c.ReadWord(op.addr)
	case protocol.OpLock:
		res.value, _ = c.ReadWord(op.addr)
		s.recordLockAcquired(p, t)
	case protocol.OpWrite, protocol.OpUnlock:
		c.WriteWord(op.addr, op.value)
		if protoOp == protocol.OpUnlock {
			s.Counts.Inc("lock.unlock-silent")
		}
	case protocol.OpWriteBlock:
		base := s.cfg.Geometry.Base(s.cfg.Geometry.BlockOf(op.addr))
		for i, v := range op.vals {
			c.WriteWord(base+addr.Addr(i), v)
		}
	}
	res.ok = true
	s.respond(p, t, res)
}

func (s *System) recordLockAcquired(p *Proc, t int64) {
	s.Counts.Inc("lock.acquired")
	s.LockLatency.Observe(t - p.opStart)
}

// queueBus activates an op context and joins bus arbitration.
func (s *System) queueBus(ctx *opCtx, high bool) {
	if !ctx.prefetch {
		ctx.p.status = statusBlocked
	}
	ctx.active = true
	s.busDirty = true
	s.Buses[s.busOf(s.cfg.Geometry.BlockOf(ctx.op.addr))].RequestAt(ctx.arbID, high, ctx.p.now)
}

// startRMW begins an atomic read-modify-write held in the cache
// (Feature 6, method 2).
func (s *System) startRMW(p *Proc, t int64, op *procOp) {
	c := s.Caches[p.id]
	b := s.cfg.Geometry.BlockOf(op.addr)
	st := c.State(b)
	if s.privilege(st) >= protocol.PrivWrite {
		// Sole access already held: entirely local.
		old, _ := c.ReadWord(op.addr)
		c.Probe(protocol.OpWrite, op.addr)
		c.WriteWord(op.addr, op.f(old))
		s.respond(p, t+2*int64(s.cfg.Timing.HitCycles), procRes{value: old, ok: true})
		return
	}
	ctx := s.slot(p)
	ctx.op = *op
	ctx.protoOp = protocol.OpWrite
	if st != protocol.Invalid {
		// A readable copy exists: capture the old value now; the write
		// phase upgrades privilege.
		ctx.rmwOld, _ = c.ReadWord(op.addr)
		ctx.rmwHaveOld = true
		ctx.pr = c.Probe(protocol.OpWrite, op.addr)
		if ctx.pr.Hit {
			c.WriteWord(op.addr, op.f(ctx.rmwOld))
			s.respond(p, t+2*int64(s.cfg.Timing.HitCycles), procRes{value: ctx.rmwOld, ok: true})
			return
		}
	} else {
		ctx.pr = c.Probe(protocol.OpWrite, op.addr)
		if ctx.pr.Cmd == bus.WriteWord {
			// Write-through path cannot return the old value: fetch a
			// readable copy first (bus held between the phases).
			ctx.protoOp = protocol.OpRead
			ctx.pr = protocol.ProcResult{Cmd: bus.Read}
		}
		// Otherwise the fetch (Read or ReadX) brings the old value and
		// the continuation captures it after install.
	}
	s.queueBus(ctx, false)
}

// startTryWrite begins the abort-on-steal write (Feature 6, method 3).
func (s *System) startTryWrite(p *Proc, t int64, op *procOp) {
	c := s.Caches[p.id]
	b := s.cfg.Geometry.BlockOf(op.addr)
	if c.State(b) == protocol.Invalid {
		// The block was stolen between the read and the write: abort.
		p.Counts.Inc("rmw.abort")
		s.respond(p, t+int64(s.cfg.Timing.HitCycles), procRes{ok: false})
		return
	}
	r := c.Probe(protocol.OpWrite, op.addr)
	if r.Hit {
		c.WriteWord(op.addr, op.value)
		s.respond(p, t+int64(s.cfg.Timing.HitCycles), procRes{ok: true})
		return
	}
	ctx := s.slot(p)
	ctx.op = *op
	ctx.protoOp = protocol.OpWrite
	ctx.pr = r
	s.queueBus(ctx, false)
}

// startBlockWrite begins a whole-block write. With Feature 9 the
// protocol skips the fetch; otherwise the first word's write runs as
// a normal (fetching) write and the rest complete locally or as
// further write-throughs.
func (s *System) startBlockWrite(p *Proc, t int64, op *procOp) {
	if s.feats.WriteNoFetch {
		s.startMemOp(p, t, op, protocol.OpWriteBlock)
		return
	}
	// Lowered path: op.vals[0] via a full write op; the completion
	// handler writes the remaining words (writeRemainder), tracking
	// progress in op.idx.
	first := *op
	first.idx = 0
	first.value = op.vals[0]
	s.startMemOp(p, t, &first, protocol.OpWrite)
}

// writeRemainder finishes a lowered block write after word op.idx
// completed: under write-in protocols the remaining
// words are cache hits; under write-through they are further bus
// writes, issued one by one. op may alias the processor's arbitration
// slot, so the copy for the next bus phase is taken before slot()
// zeroes it.
func (s *System) writeRemainder(p *Proc, t int64, op *procOp) {
	c := s.Caches[p.id]
	base := s.cfg.Geometry.Base(s.cfg.Geometry.BlockOf(op.addr))
	for i := int(op.idx) + 1; i < len(op.vals); i++ {
		a := base + addr.Addr(i)
		r := c.Probe(protocol.OpWrite, a)
		if r.Hit {
			c.WriteWord(a, op.vals[i])
			t += int64(s.cfg.Timing.HitCycles)
			continue
		}
		// Write-through: each word is its own bus transaction; issue
		// the next one and resume from its completion.
		rest := *op
		rest.idx = int32(i)
		rest.addr = a
		rest.value = op.vals[i]
		ctx := s.slot(p)
		ctx.op = rest
		ctx.protoOp = protocol.OpWrite
		ctx.pr = r
		s.queueBus(ctx, false)
		return
	}
	s.respond(p, t, procRes{ok: true})
}
