package syncprim

import (
	"fmt"

	"cachesync/internal/addr"
	"cachesync/internal/interconnect"
	"cachesync/internal/sim"
)

// This file holds the one implementation of each scheme's lock
// sequence: resumable sub-state-machines that yield the acquire and
// release ops one at a time. Programs step them inline; the blocking
// Acquire/Release loop over the same steps through sim.Proc.Do, so
// both forms issue the same ops and counters.

// LockAcquire is a resumable busy-wait lock acquisition. Start arms it
// and returns the first op of the acquire sequence; feed each Result
// to Step until done. A LockAcquire is reusable: Start re-arms it for
// the next acquisition.
type LockAcquire struct {
	scheme Scheme
	addr   addr.Addr
	phase  acqPhase
}

// acqPhase names the op currently in flight for a LockAcquire.
type acqPhase uint8

const (
	acqIdle     acqPhase = iota
	acqLockRead          // CacheLock: the LockRead
	acqRMW               // TAS/TTAS/TASMemory: the test-and-set
	acqPause             // TAS/TASMemory: the pause between attempts
	acqSpin              // TTAS: the in-cache wait for the lock word to read zero
)

// Start arms the acquire of the lock at a and returns its first
// operation.
func (l *LockAcquire) Start(s Scheme, a addr.Addr) sim.Op {
	l.scheme, l.addr = s, a
	switch s {
	case CacheLock:
		l.phase = acqLockRead
		return sim.LockReadOp(a)
	case TAS, TTAS, TASMemory:
		l.phase = acqRMW
		return l.rmwOp()
	}
	panic(fmt.Sprintf("syncprim: unknown scheme %v", l.scheme))
}

func (l *LockAcquire) rmwOp() sim.Op {
	if l.scheme == TASMemory {
		return sim.RMWMemoryOp(l.addr, tas)
	}
	return sim.RMWOp(l.addr, tas)
}

// Step consumes the Result of the previously returned op. done=true
// reports the lock held (op is then invalid); otherwise op is the next
// operation of the sequence.
func (l *LockAcquire) Step(p *sim.Proc, last sim.Result) (op sim.Op, done bool) {
	switch l.phase {
	case acqLockRead:
		// Zero-retry hardware lock: one op, however long it waited.
		l.phase = acqIdle
		p.Counts.Inc("sync.acquire")
		return sim.Op{}, true
	case acqRMW:
		if last.Value == 0 {
			l.phase = acqIdle
			p.Counts.Inc("sync.acquire")
			return sim.Op{}, true
		}
		p.Counts.Inc("sync.tas-retry")
		if l.scheme == TTAS {
			// Loop on the copy in the cache until the holder's
			// release invalidates (or updates) it.
			l.phase = acqSpin
			return sim.SpinOp(l.addr, 0, true, spinPause), false
		}
		l.phase = acqPause
		return sim.ComputeOp(spinPause), false
	case acqPause:
		l.phase = acqRMW
		return l.rmwOp(), false
	case acqSpin:
		l.phase = acqRMW
		return l.rmwOp(), false
	}
	panic("syncprim: LockAcquire.Step without Start")
}

// StartRelease returns the single op that frees the busy-wait lock at
// a; call FinishRelease when its Result arrives.
func StartRelease(s Scheme, a addr.Addr) sim.Op {
	if s == CacheLock {
		return sim.UnlockWriteOp(a, 0)
	}
	return sim.WriteOp(a, 0).WithClass(interconnect.Sync)
}

// FinishRelease records a completed release.
func FinishRelease(p *sim.Proc) { p.Counts.Inc("sync.release") }
