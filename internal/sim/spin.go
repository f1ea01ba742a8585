package sim

import (
	"cachesync/internal/interconnect"
	"cachesync/internal/protocol"
)

// A SpinOp is the engine-resident form of a busy-wait loop: a read of
// one word, and after every read that fails the compare a pause of
// local work, until a read passes. The engine steps it exactly as it
// steps the explicit ReadOp/ComputeOp loop — one event per read and
// one per pause, at the same times, charging the same counters — but
// without calling the program between iterations.
//
// Most of those iterations are copies of each other. A spinner is
// armed when its last re-read hit in its cache, left the line's state
// unchanged and failed the compare: until the line changes, every
// further re-read hits the same state, returns the same word and
// fails again. A spinner's line changes only when a bus grant runs
// (snoops happen inside bus transactions; the spinner itself issues
// nothing else, and the lower tier keeps its own memory), so each
// grant disarms every spinner and each disarmed spinner re-reads once
// for real. Between grants, jumpSpin applies an armed spinner's
// iterations in bulk.

// spinPasses reports whether word v ends the SpinOp op.
func (op *procOp) spinPasses(v uint64) bool { return (v == op.value) != op.ne }

// stepSpin runs one event of p's SpinOp at time t: the pause after a
// failed read, or a read of the word.
func (s *System) stepSpin(p *Proc, t int64, op *procOp) error {
	if p.spin.pausing {
		p.spin.pausing = false
		n := int64(op.idx)
		p.addCompute(n)
		s.wake(p, t+n)
		return nil
	}
	p.opStart = t
	rd := procOp{kind: opMem, op: protocol.OpRead, addr: op.addr, class: op.class}
	if s.lower != nil {
		if handled, err := s.routeLower(p, t, &rd); handled || err != nil {
			return err // served by the lower tier: respond ran the compare
		}
	}
	c := s.Caches[p.id]
	before := c.State(s.cfg.Geometry.BlockOf(op.addr))
	r, v := c.ProbeWord(protocol.OpRead, op.addr, 0)
	t += int64(s.cfg.Timing.HitCycles)
	if !r.Hit {
		s.queueMiss(p, &rd, protocol.OpRead, r) // respond runs the compare
		return nil
	}
	if r.NewState == before && !op.spinPasses(v) {
		s.spinAgain(p, t, true) // an exact repeat point
		return nil
	}
	s.respond(p, t, procRes{value: v, ok: true}) // respond runs the compare
	return nil
}

// spinAgain schedules p's next SpinOp event at t, after a read that
// failed the compare: the pause, or with no pause the next read. arm
// marks the failed read as an exact repeat point.
func (s *System) spinAgain(p *Proc, t int64, arm bool) {
	p.spin.pausing = p.pending.idx > 0
	s.setArmed(p, arm && int64(s.cfg.Timing.HitCycles)+int64(p.pending.idx) > 0)
	s.wake(p, t)
}

// wake makes p ready at t without stepping its program.
func (s *System) wake(p *Proc, t int64) {
	p.now = t
	p.status = statusReady
	s.ready.push(p.id, t)
}

func (s *System) setArmed(p *Proc, armed bool) {
	if p.spin.armed == armed {
		return
	}
	p.spin.armed = armed
	if armed {
		s.armedN++
	} else {
		s.armedN--
	}
}

// disarmSpinners runs before every bus grant: the grant may change
// any spinner's line.
func (s *System) disarmSpinners() {
	for _, p := range s.Procs {
		s.setArmed(p, false)
	}
}

// jumpSpin applies, in bulk, every event of armed spinner p from its
// next event at rt up to the horizon: the next event of any unarmed
// processor, the next bus grant, or MaxCycles, whichever is first. It
// keeps the event loop's order — (time, id) among processors, a
// processor before a grant at equal time — so the events it applies
// are exactly those the loop would run before the horizon. Armed
// spinners do not bound each other: their events touch only their own
// cache and counters, so their relative order changes nothing. It
// returns false, leaving p to step normally, when not even the event
// at rt lies inside the horizon (only MaxCycles can cause that).
func (s *System) jumpSpin(p *Proc, rt int64) bool {
	limit := s.cfg.MaxCycles
	if s.nextBus != -1 && s.nextGrant < limit {
		limit = s.nextGrant
	}
	for id, tq := range s.ready.times {
		if tq == readyAbsent || s.Procs[id].spin.armed {
			continue
		}
		if id < p.id {
			tq-- // q runs first at equal time
		}
		if tq < limit {
			limit = tq
		}
	}
	if limit < rt {
		return false
	}
	op := &p.pending
	h, pause := int64(s.cfg.Timing.HitCycles), int64(op.idx)
	span := limit - rt
	// Events alternate between the phase p is in (lasting first) and
	// the other one; with no pause every event is a read.
	var reads, pauses, last, next int64
	if pause == 0 {
		reads = span/h + 1
		last, next = rt+(reads-1)*h, rt+reads*h
	} else {
		period, first := h+pause, h
		if p.spin.pausing {
			first = pause
		}
		a := span/period + 1 // events in p's current phase
		b := int64(0)        // events in the other phase
		if span >= first {
			b = (span-first)/period + 1
		}
		if p.spin.pausing {
			pauses, reads = a, b
		} else {
			reads, pauses = a, b
		}
		if a > b {
			last, next = rt+(a-1)*period, rt+b*period+first
			p.spin.pausing = !p.spin.pausing
		} else {
			last, next = rt+(b-1)*period+first, rt+a*period
		}
	}
	s.Caches[p.id].RepeatReadHits(op.addr, reads)
	if reads > 0 && s.lower != nil && op.class == interconnect.Sync {
		*s.routeSyncH += reads // resolved by the real read that armed p
	}
	if pauses > 0 {
		p.addCompute(pauses * pause)
	}
	s.clock = last
	s.wake(p, next)
	return true
}
