// Package trace defines a plain-text reference-trace format so
// workloads can be captured, stored, and replayed against any
// protocol — the moral equivalent of the address traces the
// contemporaneous evaluations (Archibald-Baer, Smith) were driven by.
//
// Format: one event per line,
//
//	<proc> R <addr>          read
//	<proc> E <addr>          read with the read-for-write instruction
//	<proc> W <addr> <val>    write
//	<proc> L <addr>          lock-read
//	<proc> U <addr> <val>    unlock-write
//	<proc> A <addr>          atomic increment (RMW)
//	<proc> C <cycles>        compute
//
// Any event may carry an optional trailing routing-class token —
// "sync", "instr", or "data" — for replay on tiered machines; events
// without one are unclassified, and classic traces parse unchanged.
//
// '#' starts a comment; blank lines are ignored.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"cachesync/internal/addr"
	"cachesync/internal/interconnect"
	"cachesync/internal/sim"
)

// Kind is a trace event type.
type Kind byte

// Event kinds.
const (
	Read    Kind = 'R'
	ReadEx  Kind = 'E'
	Write   Kind = 'W'
	Lock    Kind = 'L'
	Unlock  Kind = 'U'
	Atomic  Kind = 'A'
	Compute Kind = 'C'
)

// Event is one trace record.
type Event struct {
	Proc   int
	Kind   Kind
	Addr   addr.Addr
	Value  uint64
	Cycles int64
	Class  interconnect.Class // routing class; zero = unclassified
}

// String renders the event in trace format.
func (e Event) String() string {
	var s string
	switch e.Kind {
	case Write, Unlock:
		s = fmt.Sprintf("%d %c %d %d", e.Proc, e.Kind, e.Addr, e.Value)
	case Compute:
		s = fmt.Sprintf("%d C %d", e.Proc, e.Cycles)
	default:
		s = fmt.Sprintf("%d %c %d", e.Proc, e.Kind, e.Addr)
	}
	if e.Class != interconnect.Unclassified {
		s += " " + e.Class.String()
	}
	return s
}

// Trace is an ordered sequence of per-processor events. Events of
// different processors are independent streams; ordering between
// processors is decided by the simulator.
type Trace struct {
	Events []Event
}

// Procs returns the number of processors the trace references.
func (t *Trace) Procs() int {
	n := 0
	for _, e := range t.Events {
		if e.Proc+1 > n {
			n = e.Proc + 1
		}
	}
	return n
}

// Encode writes the trace in text form.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range t.Events {
		if _, err := fmt.Fprintln(bw, e.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode parses a text trace.
func Decode(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var e Event
		var kind string
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("trace: line %d: too few fields: %q", lineNo, line)
		}
		if _, err := fmt.Sscanf(fields[0], "%d", &e.Proc); err != nil || e.Proc < 0 {
			return nil, fmt.Errorf("trace: line %d: bad processor: %q", lineNo, line)
		}
		kind = fields[1]
		if len(kind) != 1 {
			return nil, fmt.Errorf("trace: line %d: bad kind %q", lineNo, kind)
		}
		e.Kind = Kind(kind[0])
		used := 3
		switch e.Kind {
		case Read, ReadEx, Lock, Atomic:
			if _, err := fmt.Sscanf(fields[2], "%d", &e.Addr); err != nil {
				return nil, fmt.Errorf("trace: line %d: bad address: %q", lineNo, line)
			}
		case Write, Unlock:
			if len(fields) < 4 {
				return nil, fmt.Errorf("trace: line %d: write needs a value: %q", lineNo, line)
			}
			if _, err := fmt.Sscanf(fields[2], "%d", &e.Addr); err != nil {
				return nil, fmt.Errorf("trace: line %d: bad address: %q", lineNo, line)
			}
			if _, err := fmt.Sscanf(fields[3], "%d", &e.Value); err != nil {
				return nil, fmt.Errorf("trace: line %d: bad value: %q", lineNo, line)
			}
			used = 4
		case Compute:
			if _, err := fmt.Sscanf(fields[2], "%d", &e.Cycles); err != nil {
				return nil, fmt.Errorf("trace: line %d: bad cycle count: %q", lineNo, line)
			}
		default:
			return nil, fmt.Errorf("trace: line %d: unknown kind %q", lineNo, kind)
		}
		if len(fields) > used {
			if len(fields) > used+1 {
				return nil, fmt.Errorf("trace: line %d: too many fields: %q", lineNo, line)
			}
			c, err := interconnect.ParseClass(fields[used])
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: %v", lineNo, err)
			}
			e.Class = c
		}
		t.Events = append(t.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// Programs converts the trace into one sim.Program per processor,
// replayable on any simulated machine; events of processors at or
// beyond procs are dropped. Lock events need a protocol with the
// hardware lock: on others the run fails. Compute events of zero or
// fewer cycles are skipped.
func (t *Trace) Programs(procs int) []sim.Program {
	ps := make([]sim.Program, procs)
	rs := make([]replay, procs)
	for _, e := range t.Events {
		if e.Proc < procs {
			rs[e.Proc].evs = append(rs[e.Proc].evs, e)
		}
	}
	for i := range ps {
		ps[i] = &rs[i]
	}
	return ps
}

// replay steps one processor's events in order.
type replay struct {
	evs []Event
	i   int
}

func (r *replay) Next(*sim.Proc, sim.Result) (sim.Op, bool) {
	for r.i < len(r.evs) {
		e := &r.evs[r.i]
		r.i++
		switch e.Kind {
		case Read:
			return sim.ReadOp(e.Addr).WithClass(e.Class), true
		case ReadEx:
			return sim.ReadExOp(e.Addr).WithClass(e.Class), true
		case Write:
			return sim.WriteOp(e.Addr, e.Value).WithClass(e.Class), true
		case Lock:
			return sim.LockReadOp(e.Addr), true
		case Unlock:
			return sim.UnlockWriteOp(e.Addr, e.Value), true
		case Atomic:
			return sim.RMWOp(e.Addr, increment), true
		case Compute:
			if e.Cycles > 0 {
				return sim.ComputeOp(e.Cycles), true
			}
		}
	}
	return sim.Op{}, false
}

func increment(v uint64) uint64 { return v + 1 }
