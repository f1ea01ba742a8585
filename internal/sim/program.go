package sim

import (
	"context"
	"fmt"
	"math"

	"cachesync/internal/addr"
	"cachesync/internal/interconnect"
	"cachesync/internal/protocol"
)

// Program is the direct-execution workload interface: a resumable
// state machine the engine steps inline, with no goroutine or channel
// per processor. Next receives the Result of the previously yielded
// Op (a zero Result on the first call) and returns the next Op; a
// false second return value ends the program. Next runs on the engine
// goroutine, so it may freely touch p (counters, ID, Now) but must
// not block.
//
// Any buffer passed to an Op constructor (WriteBlockOp, IOOp) must
// stay untouched until that Op's Result arrives: the program is
// suspended while the engine consumes the buffer, so in-place reuse
// across calls is safe and allocation-free.
//
// The blocking func(*Proc) API (System.Run/RunContext) runs on the
// same event loop: each blocking workload is adapted into a Program by
// running it as an iter.Pull coroutine whose Proc calls yield their
// ops. Programs and blocking workloads produce byte-identical event
// logs, final machine state, and statistics for the same operation
// sequence — only the op-delivery mechanism differs.
type Program interface {
	Next(p *Proc, last Result) (Op, bool)
}

// Result is the completed outcome of a Program's previous Op.
type Result struct {
	// Value is the datum produced by the operation: the word read
	// (Read/ReadEx/LockRead/LockWait), or the old value (RMW/RMWMemory).
	Value uint64
	// OK is false only for a failed TryWrite (block stolen).
	OK bool
	// Now is the processor's local clock after the operation.
	Now int64
}

// Op is one processor operation yielded by a Program. Construct Ops
// with the package-level *Op constructors; the zero Op is invalid.
type Op struct{ raw procOp }

// InstrFetchOp loads the instruction word at a (class Instr): on a
// tiered machine it is served by the instruction buffer and the lower
// tier rather than the synchronization bus.
func InstrFetchOp(a addr.Addr) Op {
	return Op{procOp{kind: opMem, op: protocol.OpRead, addr: a, class: interconnect.Instr}}
}

// WithClass returns o tagged with routing class c for tiered
// machines. The lock, RMW, spin and I/O constructors are Sync already; a
// single-tier machine ignores classes entirely.
func (o Op) WithClass(c interconnect.Class) Op {
	o.raw.class = c
	return o
}

// Class returns o's routing class.
func (o Op) Class() interconnect.Class { return o.raw.class }

// IsRef reports whether o references memory (everything except pure
// compute advances).
func (o Op) IsRef() bool { return o.raw.kind != opCompute && o.raw.kind != opDone }

// ReadOp loads the word at a.
func ReadOp(a addr.Addr) Op {
	return Op{procOp{kind: opMem, op: protocol.OpRead, addr: a}}
}

// ReadExOp loads the word at a with the compiler-declared
// read-for-write-privilege instruction (Feature 5 static form).
func ReadExOp(a addr.Addr) Op {
	return Op{procOp{kind: opMem, op: protocol.OpReadEx, addr: a}}
}

// WriteOp stores v at a.
func WriteOp(a addr.Addr, v uint64) Op {
	return Op{procOp{kind: opMem, op: protocol.OpWrite, addr: a, value: v}}
}

// LockReadOp is the paper's lock operation (Section E.3); the Result
// carries the locked word. Requires a HardwareLock protocol.
func LockReadOp(a addr.Addr) Op {
	return Op{procOp{kind: opMem, op: protocol.OpLock, addr: a, class: interconnect.Sync}}
}

// UnlockWriteOp stores v at a with the unlock line asserted.
func UnlockWriteOp(a addr.Addr, v uint64) Op {
	return Op{procOp{kind: opMem, op: protocol.OpUnlock, addr: a, value: v, class: interconnect.Sync}}
}

// LockPrefetchOp requests the lock at a and completes immediately
// (Section E.4's ready section); join with LockWaitOp.
func LockPrefetchOp(a addr.Addr) Op {
	return Op{procOp{kind: opLockPrefetch, op: protocol.OpLock, addr: a, class: interconnect.Sync}}
}

// LockWaitOp joins a prefetched lock (plain LockRead without a prior
// prefetch); the Result carries the locked word.
func LockWaitOp(a addr.Addr) Op {
	return Op{procOp{kind: opLockWait, op: protocol.OpLock, addr: a, class: interconnect.Sync}}
}

// RMWOp atomically applies f to the word at a, cache-held (Feature 6
// method 2); the Result carries the old value.
func RMWOp(a addr.Addr, f func(uint64) uint64) Op {
	return Op{procOp{kind: opRMW, addr: a, f: f, class: interconnect.Sync}}
}

// RMWMemoryOp atomically applies f to the word at a while holding the
// memory module (Feature 6 method 1); the Result carries the old value.
func RMWMemoryOp(a addr.Addr, f func(uint64) uint64) Op {
	return Op{procOp{kind: opRMWMem, addr: a, f: f, class: interconnect.Sync}}
}

// TryWriteOp stores v at a only if the block is still cached; the
// Result's OK reports success (Feature 6 method 3).
func TryWriteOp(a addr.Addr, v uint64) Op {
	return Op{procOp{kind: opTryWrite, addr: a, value: v, class: interconnect.Sync}}
}

// WriteBlockOp overwrites the whole block containing a with vals. The
// engine reads vals until the op completes; see Program for the
// buffer-reuse contract.
func WriteBlockOp(a addr.Addr, vals []uint64) Op {
	return Op{procOp{kind: opBlockWrite, addr: a, vals: vals}}
}

// ComputeOp advances the processor's local clock by n cycles of
// bus-free work. n <= 0 completes in zero time; programs porting
// blocking code should skip the op instead (as Proc.Compute does) to
// keep op streams identical.
func ComputeOp(n int64) Op {
	return Op{procOp{kind: opCompute, value: uint64(n)}}
}

// SpinOp waits for the word at a to equal v (eq) or to differ from
// it (!eq), the busy-wait loop of a waiter that "loops on a one in
// its cache" (Section E.4). It reads the word; after each read that
// fails the compare it pauses pause cycles of local work (no pause
// when pause <= 0) and reads again. The Result is that of the read
// that passes. Cycles and counters are exactly those of yielding the
// same ReadOps and ComputeOps one by one, but the program is not
// stepped per iteration, and the engine applies iterations that
// provably repeat in bulk (see spin.go). Like the other
// synchronization constructors, the read is Sync class.
func SpinOp(a addr.Addr, v uint64, eq bool, pause int64) Op {
	if pause > math.MaxInt32 {
		panic(fmt.Sprintf("sim: SpinOp pause %d out of range", pause))
	}
	if pause < 0 {
		pause = 0
	}
	return Op{procOp{kind: opSpin, op: protocol.OpRead, addr: a, value: v, ne: !eq,
		idx: int32(pause), class: interconnect.Sync}}
}

// IOOp issues an I/O-processor transfer against the block containing
// a (Section E.2); vals is the IOInput data.
func IOOp(kind ioKind, a addr.Addr, vals []uint64) Op {
	return Op{procOp{kind: opIO, io: kind, addr: a, vals: vals, class: interconnect.Sync}}
}

// RunPrograms executes one Program per processor, stepped inline by
// the event loop; progs[i] runs on processor i, nil entries
// idle. It returns once every program has finished, or an error on
// deadlock or cycle overrun.
func (s *System) RunPrograms(progs []Program) error {
	return s.RunProgramsContext(context.Background(), progs)
}

// RunProgramsContext is RunPrograms with cancellation: ctx expiry is
// checked before every event, so the loop aborts within one event of
// the deadline. The engine itself holds nothing to unwind.
func (s *System) RunProgramsContext(ctx context.Context, progs []Program) error {
	if s.started {
		return fmt.Errorf("sim: a System runs exactly once; build a fresh one")
	}
	s.started = true
	for i, p := range s.Procs {
		if i < len(progs) && progs[i] != nil {
			p.prog = progs[i]
			if op, ok := p.prog.Next(p, Result{}); ok {
				p.pending = op.raw
			} else {
				p.pending = procOp{kind: opDone}
			}
		} else {
			p.pending = procOp{kind: opDone} // no program: idle
		}
		p.status = statusReady
		s.ready.push(p.id, 0)
	}
	return s.run(ctx)
}
