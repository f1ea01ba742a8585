package sim

import (
	"cachesync/internal/addr"
	"cachesync/internal/interconnect"
	"cachesync/internal/protocol"
	"cachesync/internal/stats"
)

// opKind distinguishes the primitive operations a processor can issue
// to the engine.
type opKind uint8

const (
	opMem          opKind = iota // a protocol.Op against the cache
	opCompute                    // local work for N cycles, no memory traffic
	opRMW                        // atomic read-modify-write, cache-held (Feature 6 method 2)
	opRMWMem                     // atomic read-modify-write held at memory (method 1)
	opTryWrite                   // write that fails if the block was stolen (method 3)
	opBlockWrite                 // whole-block write (Feature 9 when supported)
	opIO                         // I/O processor transfer (Section E.2)
	opLockPrefetch               // request a lock but keep working (Section E.4)
	opLockWait                   // join a previously prefetched lock
	opSpin                       // re-read a word until it passes a compare (SpinOp)
	opDone                       // workload finished
)

// ioKind selects the I/O operation for opIO.
type ioKind uint8

const (
	// IOInput writes a block to memory, invalidating cached copies.
	IOInput ioKind = iota
	// IOPageOut fetches a block with write privilege (invalidating).
	IOPageOut
	// IOOutput reads a block without disturbing source status.
	IOOutput
)

// procOp is one request from a processor to the engine. It is copied
// on every simulated operation (Program.Next returns it by value), so
// it is kept narrow: opCompute's cycle count and opSpin's compare word
// share the value field, and the block-write progress index, which
// doubles as opSpin's pause, is 32-bit.
type procOp struct {
	kind  opKind
	op    protocol.Op
	io    ioKind
	class interconnect.Class // routing class on a tiered machine
	ne    bool               // opSpin: wait for a word != value (else ==)
	idx   int32              // progress index of a lowered block write; opSpin's pause cycles
	addr  addr.Addr
	value uint64   // written word, opCompute cycles, or opSpin's compare word
	vals  []uint64 // opBlockWrite
	f     func(uint64) uint64
}

// procRes is the engine's completion of a processor's operation.
type procRes struct {
	value uint64
	ok    bool
}

// simCancelPanic is the sentinel Proc.do panics with when a run ends
// before the workload does; the blocking-workload adapter recovers
// exactly this type, so workloads unwind without cooperating.
type simCancelPanic struct{}

// procStatus tracks where a processor is in the engine's event loop.
type procStatus uint8

const (
	statusReady   procStatus = iota // has a pending op, scheduled in the ready heap
	statusBlocked                   // op in flight on the bus
	statusWaiting                   // parked in busy wait
	statusDone
)

// Proc is the processor-side handle a workload runs against. The
// engine pulls ops from prog inline. A blocking workload's prog is the
// coroutine adapter of RunContext: its blocking methods yield each op
// and resume with the Result that Next left in last.
type Proc struct {
	id  int
	sys *System

	prog  Program
	yield func(procOp) bool // the blocking workload's coroutine yield
	last  Result            // result of the blocking workload's previous op

	// engine-side state
	status  procStatus
	pending procOp
	now     int64
	opStart int64 // issue time of the in-flight op (latency stats)

	// plock is the state of a prefetched lock (Section E.4: "a
	// processor can work while waiting if it requests the lock when
	// ready but still has work to do").
	plock struct {
		armed    bool // a prefetch is outstanding or acquired
		acquired bool
		waiting  bool // the processor blocked in LockWait
		addr     addr.Addr
		value    uint64
	}

	// spin is the engine state of an in-flight SpinOp (see spin.go).
	spin struct {
		pausing bool // the next event is the pause after a failed read
		armed   bool // re-reads repeat exactly until the next bus grant
	}

	Counts   stats.Counters
	computeH *int64 // proc.compute-cycles, resolved on first use
}

// addCompute charges n cycles of local work through the cached
// proc.compute-cycles handle. The handle is resolved on the first
// compute op, so the counter stays absent from runs that never
// compute and reads zero after a zero-cycle op.
func (p *Proc) addCompute(n int64) {
	if p.computeH == nil {
		p.computeH = p.Counts.Handle("proc.compute-cycles")
	}
	*p.computeH += n
}

// ID returns the processor's index.
func (p *Proc) ID() int { return p.id }

// Now returns the processor's local view of the simulation clock, in
// cycles, as of its last completed operation.
func (p *Proc) Now() int64 { return p.now }

func (p *Proc) do(op procOp) Result {
	if !p.yield(op) {
		panic(simCancelPanic{})
	}
	return p.last
}

// Do issues o from a blocking workload and returns its Result: the
// blocking counterpart of yielding o from a Program. It lets blocking
// code drive the same Op sequences Programs build (syncprim's lock
// steps, a generator's Programs). Unlike Compute, Do issues a
// ComputeOp of n <= 0 as a zero-time op.
func (p *Proc) Do(o Op) Result { return p.do(o.raw) }

// Read loads the word at a.
func (p *Proc) Read(a addr.Addr) uint64 {
	return p.do(procOp{kind: opMem, op: protocol.OpRead, addr: a}).Value
}

// Write stores v at a.
func (p *Proc) Write(a addr.Addr, v uint64) {
	p.do(procOp{kind: opMem, op: protocol.OpWrite, addr: a, value: v})
}

// ReadClass is Read tagged with a routing class for tiered machines;
// on a single-tier machine the class is inert.
func (p *Proc) ReadClass(a addr.Addr, c interconnect.Class) uint64 {
	return p.do(procOp{kind: opMem, op: protocol.OpRead, addr: a, class: c}).Value
}

// WriteClass is Write tagged with a routing class.
func (p *Proc) WriteClass(a addr.Addr, v uint64, c interconnect.Class) {
	p.do(procOp{kind: opMem, op: protocol.OpWrite, addr: a, value: v, class: c})
}

// InstrFetch loads the instruction word at a (class Instr): on a
// tiered machine it is served by the instruction buffer and the lower
// tier rather than the synchronization bus.
func (p *Proc) InstrFetch(a addr.Addr) uint64 {
	return p.do(procOp{kind: opMem, op: protocol.OpRead, addr: a, class: interconnect.Instr}).Value
}

// LockRead performs the paper's lock operation (Section E.3): a read
// of the word at a with the processor lock line asserted. It blocks —
// busy-waiting via the busy-wait register, with no bus retries —
// until the lock is acquired, and returns the word's value. Only
// protocols with HardwareLock support it; on others the run fails.
func (p *Proc) LockRead(a addr.Addr) uint64 {
	return p.do(procOp{kind: opMem, op: protocol.OpLock, addr: a, class: interconnect.Sync}).Value
}

// UnlockWrite performs the paper's unlock operation: a store of v at
// a with the unlock line asserted (Figure 8).
func (p *Proc) UnlockWrite(a addr.Addr, v uint64) {
	p.do(procOp{kind: opMem, op: protocol.OpUnlock, addr: a, value: v, class: interconnect.Sync})
}

// LockPrefetch requests the lock at a and returns immediately so the
// processor can keep working — the paper's "ready section" (Section
// E.4): the busy-wait register waits while the processor computes.
// Follow with LockWait to join the lock. A second prefetch while one
// is outstanding is a no-op.
func (p *Proc) LockPrefetch(a addr.Addr) {
	p.do(procOp{kind: opLockPrefetch, op: protocol.OpLock, addr: a, class: interconnect.Sync})
}

// LockWait blocks until the lock requested by LockPrefetch is held
// and returns the locked word. Without a prior prefetch it behaves as
// LockRead.
func (p *Proc) LockWait(a addr.Addr) uint64 {
	return p.do(procOp{kind: opLockWait, op: protocol.OpLock, addr: a, class: interconnect.Sync}).Value
}

// RMW atomically applies f to the word at a and returns the old
// value. The block is fetched with write privilege and the cache held
// for the duration (Feature 6, method 2).
func (p *Proc) RMW(a addr.Addr, f func(uint64) uint64) uint64 {
	return p.do(procOp{kind: opRMW, addr: a, f: f, class: interconnect.Sync}).Value
}

// RMWMemory atomically applies f to the word at a while holding the
// memory module (Feature 6, method 1: Rudolph-Segall). The caches are
// bypassed; cached copies are invalidated or updated by the write
// broadcast.
func (p *Proc) RMWMemory(a addr.Addr, f func(uint64) uint64) uint64 {
	return p.do(procOp{kind: opRMWMem, addr: a, f: f, class: interconnect.Sync}).Value
}

// TryWrite stores v at a only if the cache still holds the block; it
// reports success. It is the abort-on-steal write of Feature 6's
// method 3: a miss means the block was stolen between the read and
// the write, and the instruction must be aborted and retried.
func (p *Proc) TryWrite(a addr.Addr, v uint64) bool {
	return p.do(procOp{kind: opTryWrite, addr: a, value: v, class: interconnect.Sync}).OK
}

// WriteBlock overwrites the whole block containing a with vals
// (len == block words). Protocols with Feature 9 skip the fetch.
func (p *Proc) WriteBlock(a addr.Addr, vals []uint64) {
	cp := make([]uint64, len(vals))
	copy(cp, vals)
	p.do(procOp{kind: opBlockWrite, addr: a, vals: cp})
}

// Compute advances the processor's local clock by n cycles of
// bus-free work.
func (p *Proc) Compute(n int64) {
	if n <= 0 {
		return
	}
	p.do(procOp{kind: opCompute, value: uint64(n)})
}

// IO issues an I/O-processor transfer against the block containing a
// (Section E.2). The data for IOInput is vals.
func (p *Proc) IO(kind ioKind, a addr.Addr, vals []uint64) {
	var cp []uint64
	if vals != nil {
		cp = make([]uint64, len(vals))
		copy(cp, vals)
	}
	p.do(procOp{kind: opIO, io: kind, addr: a, vals: cp, class: interconnect.Sync})
}
