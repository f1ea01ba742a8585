// Package cache implements the snooping processor cache: a
// set-associative (fully associative when one set) array of lines
// carrying protocol state and real data, the bus-side snoop logic, the
// busy-wait register of the paper's proposal (Section E.4), per-line
// transfer-unit dirty tracking (Section D.3), and the directory-
// interference accounting behind Feature 3.
package cache

import (
	"fmt"
	"sort"

	"cachesync/internal/addr"
	"cachesync/internal/bus"
	"cachesync/internal/memory"
	"cachesync/internal/protocol"
	"cachesync/internal/stats"
)

// line is one cache block frame.
type line struct {
	tag       addr.Block
	hasTag    bool // tag is meaningful (even if state is Invalid)
	state     protocol.State
	data      []uint64
	unitDirty []bool
	lru       uint64 // last-touch tick (LRU)
	installed uint64 // install tick (FIFO)
}

func (ln *line) valid() bool { return ln.hasTag && ln.state != protocol.Invalid }

// Precomputed "proc.hit.<op>" / "proc.miss.<op>" / "proc.busop.<op>"
// statistic keys: the probe path runs once per simulated access and
// must not build strings.
const maxCountedOps = 8

var hitCounterNames, missCounterNames, busopCounterNames [maxCountedOps]string

func init() {
	for i := range hitCounterNames {
		s := protocol.Op(i).String()
		hitCounterNames[i] = "proc.hit." + s
		missCounterNames[i] = "proc.miss." + s
		busopCounterNames[i] = "proc.busop." + s
	}
}

// BusyWaitRegister is the special register of Section E.3/E.4: it
// remembers the block a denied lock request targeted and joins the
// next arbitration, at high priority, when the unlock is broadcast.
type BusyWaitRegister struct {
	Armed bool
	Block addr.Block
}

// Replacement selects the victim policy within a set.
type Replacement int

const (
	// LRU evicts the least recently used line — the policy Feature 8's
	// "LRU replacement tends to hold across caches" argument assumes.
	LRU Replacement = iota
	// FIFO evicts the oldest-installed line.
	FIFO
	// Random evicts a pseudo-random line (deterministic per cache).
	Random
)

var replacementNames = [...]string{"lru", "fifo", "random"}

// String implements fmt.Stringer.
func (r Replacement) String() string {
	if int(r) < len(replacementNames) {
		return replacementNames[r]
	}
	return fmt.Sprintf("replacement(%d)", int(r))
}

// Config sizes a cache.
type Config struct {
	Sets int // number of sets; 1 = fully associative
	Ways int // lines per set
	// UnitMode enables transfer-unit cost accounting (Section D.3):
	// bus word costs count only the requested unit plus dirty units
	// rather than the whole block.
	UnitMode bool
	// Replace selects the victim policy (default LRU).
	Replace Replacement
	// NoTables disables the compiled transition tables, keeping every
	// protocol decision on the method path — the oracle side of the
	// table-vs-method differential tests.
	NoTables bool
}

// Victim describes an eviction the engine must carry out before a
// fill can proceed. Data aliases a per-cache scratch buffer that is
// valid only until this cache's next PrepareFill; consumers copy what
// they keep.
type Victim struct {
	Block  addr.Block
	Data   []uint64
	Evict  protocol.Evict
	Needed bool // false: no eviction necessary
}

// Cache is one processor's cache plus its bus controller.
type Cache struct {
	id    int
	geom  addr.Geometry
	proto protocol.Protocol
	tab   *protocol.Table // compiled transition tables; nil = method path
	cfg   Config
	mem   *memory.Memory // flush target for snoop-time flushes

	sets [][]line
	tick uint64
	rng  uint64 // Random replacement state (seeded from the cache ID)

	// idx maps a held tag to its frame, replacing the per-probe (and,
	// worse, per-snoop-per-cache) linear way scan. Each tag lives in
	// exactly one frame — Install reuses the tagged frame when present
	// and PrepareFill only runs when the tag is absent — so the index
	// is maintained at the six tag-mutation points. Frames are
	// allocated once in New and never move, so the pointers stay valid.
	idx *tagIndex

	// mruKey/mruLn cache the last successful lookup (key is block+1; 0
	// means empty): a bus transaction touches the same block several
	// times in a row (reprobe, completion state change, data access),
	// and the repeat lookups skip the hash probe. The entry is valid
	// only while the pair is in idx — idxDel clears a matching entry,
	// and Restore clears it with the index.
	mruKey uint64
	mruLn  *line

	// Resolved stats handles for the per-access and per-snoop counters
	// (see stats.Counters.Handle), filled on first use so a counter
	// still only appears in snapshots once incremented.
	hitH, missH, busopH              [maxCountedOps]*int64
	snoopSeenH, tagmatchH, lockedH   *int64
	supplyH, flushH, updateH, invalH *int64
	wakeupH, dirWHCH                 *int64

	// snoopsInvalid caches Features().SnoopsInvalid: Features() builds
	// its descriptor (including a map) on every call, far too expensive
	// for the per-snoop paths of the simulator and the model checker.
	snoopsInvalid bool

	// victimBuf is the scratch storage behind Victim.Data: at most one
	// eviction is in flight per cache, and both engines consume the
	// victim's data before the next PrepareFill.
	victimBuf []uint64

	BWReg  BusyWaitRegister
	Counts stats.Counters
}

// New builds a cache. mem is the flush target used when the protocol
// flushes during a snoop (Feature 7); it may be nil only if the
// protocol never flushes on snoop.
func New(id int, geom addr.Geometry, proto protocol.Protocol, cfg Config, mem *memory.Memory) *Cache {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache: bad config %+v", cfg))
	}
	c := &Cache{id: id, geom: geom, proto: proto, cfg: cfg, mem: mem, rng: uint64(id)*2654435761 + 1,
		snoopsInvalid: proto.Features().SnoopsInvalid,
		idx:           newTagIndex(cfg.Sets * cfg.Ways)}
	if !cfg.NoTables {
		c.tab = protocol.TableFor(proto)
	}
	c.sets = make([][]line, cfg.Sets)
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Ways)
	}
	return c
}

// bump increments the counter behind *h, resolving the handle on
// first use.
func (c *Cache) bump(h **int64, name string) {
	if *h == nil {
		*h = c.Counts.Handle(name)
	}
	**h++
}

// ID implements bus.Snooper.
func (c *Cache) ID() int { return c.id }

// Protocol returns the protocol instance driving this cache.
func (c *Cache) Protocol() protocol.Protocol { return c.proto }

// isDirty consults the compiled table when present.
func (c *Cache) isDirty(st protocol.State) bool {
	if c.tab != nil {
		return c.tab.IsDirty(st)
	}
	return c.proto.IsDirty(st)
}

// Geometry returns the cache's address geometry.
func (c *Cache) Geometry() addr.Geometry { return c.geom }

func (c *Cache) setIndex(b addr.Block) int {
	return int(uint64(b) % uint64(c.cfg.Sets))
}

// find returns the line holding block b. When snoopInvalid is set,
// invalid lines with a matching tag are also returned (Rudolph-Segall
// updates invalid copies, Section E.4). Indexed frames always have
// their tag set — put/del straddle every hasTag mutation — so only the
// state filter applies here.
func (c *Cache) find(b addr.Block, snoopInvalid bool) *line {
	k := uint64(b) + 1
	ln := c.mruLn
	if c.mruKey != k {
		ln = c.idx.get(b)
		if ln != nil {
			c.mruKey, c.mruLn = k, ln
		}
	}
	if ln != nil && (ln.state != protocol.Invalid || snoopInvalid) {
		return ln
	}
	return nil
}

// idxDel removes block b from the tag index, keeping the MRU entry
// consistent. All index removals must go through here.
func (c *Cache) idxDel(b addr.Block) {
	if c.mruKey == uint64(b)+1 {
		c.mruKey, c.mruLn = 0, nil
	}
	c.idx.del(b)
}

// State returns the protocol state of block b (Invalid if absent).
func (c *Cache) State(b addr.Block) protocol.State {
	if ln := c.find(b, false); ln != nil {
		return ln.state
	}
	return protocol.Invalid
}

// Blocks returns every valid block and its state, for invariant checks.
func (c *Cache) Blocks() map[addr.Block]protocol.State {
	out := make(map[addr.Block]protocol.State)
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid() {
				out[set[i].tag] = set[i].state
			}
		}
	}
	return out
}

// Data returns a copy of block b's cached data, or nil if not valid.
func (c *Cache) Data(b addr.Block) []uint64 {
	ln := c.find(b, false)
	if ln == nil {
		return nil
	}
	out := make([]uint64, len(ln.data))
	copy(out, ln.data)
	return out
}

// DataView returns block b's cached data without copying, or nil if
// not valid. The slice aliases the live line — callers must treat it
// as read-only and must not hold it across cache mutations. It exists
// for the hot paths of the coherence checker and the model checker,
// which inspect every block after every transition.
func (c *Cache) DataView(b addr.Block) []uint64 {
	if ln := c.find(b, false); ln != nil {
		return ln.data
	}
	return nil
}

func (c *Cache) touch(ln *line) {
	c.tick++
	ln.lru = c.tick
}

// Probe runs a processor access against the cache. On a hit the state
// transition is applied and hit statistics recorded; on a miss (or a
// hit that needs the bus) the returned ProcResult carries the bus
// command to issue.
func (c *Cache) Probe(op protocol.Op, a addr.Addr) protocol.ProcResult {
	r, _ := c.probe(op, a, true)
	return r
}

// Reprobe is Probe without statistics: the engine re-runs the access
// at bus-grant time, because snooped transactions may have changed the
// line state since the original probe.
func (c *Cache) Reprobe(op protocol.Op, a addr.Addr) protocol.ProcResult {
	r, _ := c.probe(op, a, false)
	return r
}

// ProbeWord is Probe fused with the hit-time data access: on a hit a
// write-class op stores v (marking the transfer unit dirty) and a
// read-class op loads the word, reusing the probe's tag lookup instead
// of a second one. The returned value is the loaded word (reads) or v
// (writes); it is meaningless on a miss. Not for OpWriteBlock, whose
// hit action spans the whole block.
func (c *Cache) ProbeWord(op protocol.Op, a addr.Addr, v uint64) (protocol.ProcResult, uint64) {
	r, ln := c.probe(op, a, true)
	if !r.Hit {
		return r, 0
	}
	off := c.geom.Offset(a)
	if op.IsWrite() {
		ln.data[off] = v
		ln.unitDirty[c.geom.UnitOf(a)] = true
		return r, v
	}
	return r, ln.data[off]
}

func (c *Cache) probe(op protocol.Op, a addr.Addr, count bool) (protocol.ProcResult, *line) {
	b := c.geom.BlockOf(a)
	st := protocol.Invalid
	ln := c.find(b, false)
	if ln != nil {
		st = ln.state
	}
	var r protocol.ProcResult
	if c.tab != nil {
		r = c.tab.ProcAccess(st, op)
	} else {
		r = c.proto.ProcAccess(st, op)
	}
	if r.Hit {
		if ln == nil {
			panic(fmt.Sprintf("cache %d: protocol %s reported hit on absent block %d (op %s)",
				c.id, c.proto.Name(), b, op))
		}
		if count {
			c.bump(&c.hitH[op], hitCounterNames[op])
			// Feature 3 statistic: frequency of write hits to clean
			// blocks (the events that update dirty status in the bus
			// directory).
			if op.IsWrite() && !c.isDirty(st) && c.isDirty(r.NewState) {
				c.bump(&c.dirWHCH, "dir.write-hit-clean")
			}
		}
		ln.state = r.NewState
		c.touch(ln)
	} else if count {
		if ln == nil {
			c.bump(&c.missH[op], missCounterNames[op])
		} else {
			c.bump(&c.busopH[op], busopCounterNames[op])
		}
	}
	return r, ln
}

// RepeatReadHits applies n more read hits on the word at a, exactly
// as n Probe(OpRead) calls that hit and leave the line's state
// unchanged would: the read-hit counter grows by n and the line
// becomes the most recent of n more touches. The simulator skips the
// provably identical re-reads of a busy-wait loop with it.
func (c *Cache) RepeatReadHits(a addr.Addr, n int64) {
	ln := c.find(c.geom.BlockOf(a), false)
	if ln == nil || n <= 0 {
		return
	}
	h := &c.hitH[protocol.OpRead]
	if *h == nil {
		*h = c.Counts.Handle(hitCounterNames[protocol.OpRead])
	}
	**h += n
	c.tick += uint64(n)
	ln.lru = c.tick
}

// SetUnitDirty overrides block b's per-unit dirty bits (used when
// dirty status transfers with the block, Feature 7 "NF,S").
func (c *Cache) SetUnitDirty(b addr.Block, dirty []bool) {
	ln := c.find(b, false)
	if ln == nil || dirty == nil {
		return
	}
	copy(ln.unitDirty, dirty)
}

// PrepareFill reports the eviction (if any) required before block b
// can be installed. The victim line is not yet cleared; the engine
// performs the writeback and then calls Drop.
func (c *Cache) PrepareFill(b addr.Block) Victim {
	if c.find(b, true) != nil {
		return Victim{}
	}
	set := c.sets[c.setIndex(b)]
	// Prefer an unused frame, then an invalid (tag-only) frame, then
	// the LRU valid line.
	var victim *line
	for i := range set {
		ln := &set[i]
		if !ln.hasTag {
			return Victim{}
		}
		if !ln.valid() {
			victim = ln
			break
		}
	}
	if victim == nil {
		switch c.cfg.Replace {
		case FIFO:
			for i := range set {
				ln := &set[i]
				if victim == nil || ln.installed < victim.installed {
					victim = ln
				}
			}
		case Random:
			c.rng = c.rng*6364136223846793005 + 1442695040888963407
			victim = &set[int(c.rng>>33)%len(set)]
		default: // LRU
			for i := range set {
				ln := &set[i]
				if victim == nil || ln.lru < victim.lru {
					victim = ln
				}
			}
		}
	}
	if !victim.valid() {
		// Invalid tag-only frame: reusable with no obligations.
		c.idxDel(victim.tag)
		victim.hasTag = false
		return Victim{}
	}
	var ev protocol.Evict
	if c.tab != nil {
		ev = c.tab.Evict(victim.state)
	} else {
		ev = c.proto.Evict(victim.state)
	}
	if cap(c.victimBuf) < len(victim.data) {
		c.victimBuf = make([]uint64, len(victim.data))
	}
	data := c.victimBuf[:len(victim.data)]
	copy(data, victim.data)
	return Victim{Block: victim.tag, Data: data, Evict: ev, Needed: true}
}

// EvictWords returns the number of bus words a writeback of block b
// costs (dirty units only in unit mode, whole block otherwise).
func (c *Cache) EvictWords(b addr.Block) int {
	ln := c.find(b, false)
	if ln == nil {
		return c.geom.BlockWords
	}
	if !c.cfg.UnitMode {
		return c.geom.BlockWords
	}
	n := 0
	for _, d := range ln.unitDirty {
		if d {
			n += c.geom.TransferWords
		}
	}
	if n == 0 {
		n = c.geom.TransferWords
	}
	return n
}

// Drop invalidates block b (post-eviction, or I/O invalidation).
func (c *Cache) Drop(b addr.Block) {
	if ln := c.find(b, true); ln != nil {
		c.idxDel(ln.tag)
		ln.hasTag = false
		ln.state = protocol.Invalid
	}
}

// Install places block b into the cache with the given state and
// data, evicting nothing: the engine must have handled the victim via
// PrepareFill/Drop first. Passing nil data installs zeroed data (used
// by WriteNoFetch, Feature 9).
func (c *Cache) Install(b addr.Block, data []uint64, st protocol.State) {
	ln := c.find(b, true)
	if ln == nil {
		set := c.sets[c.setIndex(b)]
		for i := range set {
			if !set[i].hasTag {
				ln = &set[i]
				break
			}
		}
		if ln == nil {
			panic(fmt.Sprintf("cache %d: Install(%d) with no free frame; PrepareFill not honored", c.id, b))
		}
	}
	ln.hasTag = true
	ln.tag = b
	c.idx.put(b, ln)
	ln.state = st
	if ln.data == nil || len(ln.data) != c.geom.BlockWords {
		ln.data = make([]uint64, c.geom.BlockWords)
	}
	if data != nil {
		copy(ln.data, data)
	} else {
		for i := range ln.data {
			ln.data[i] = 0
		}
	}
	if len(ln.unitDirty) != c.geom.Units() {
		ln.unitDirty = make([]bool, c.geom.Units())
	} else {
		for i := range ln.unitDirty {
			ln.unitDirty[i] = false
		}
	}
	c.tick++
	ln.installed = c.tick
	ln.lru = c.tick
}

// LineSnapshot is the restorable state of one occupied cache frame:
// the block tag, the protocol state (Invalid for a tag-only frame kept
// for invalid-line snooping), and the data words. Snapshot/Restore are
// the state hooks of the bounded model checker (internal/mcheck),
// which needs to re-materialize a cache at an arbitrary explored
// state.
type LineSnapshot struct {
	Block addr.Block
	State protocol.State
	Data  []uint64
}

// Snapshot captures every occupied frame (including tag-only invalid
// frames, which matter to protocols that snoop invalid lines), sorted
// by block for a canonical encoding.
func (c *Cache) Snapshot() []LineSnapshot {
	var out []LineSnapshot
	for _, set := range c.sets {
		for i := range set {
			ln := &set[i]
			if !ln.hasTag {
				continue
			}
			data := make([]uint64, len(ln.data))
			copy(data, ln.data)
			out = append(out, LineSnapshot{Block: ln.tag, State: ln.state, Data: data})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Block < out[j].Block })
	return out
}

// Restore clears the cache and installs exactly the given frames
// (LRU/FIFO bookkeeping restarts; the busy-wait register disarms). It
// panics when a set overflows, which means the snapshot never came
// from a cache of this shape.
func (c *Cache) Restore(lines []LineSnapshot) {
	// Reset every frame but keep its data/unitDirty storage: Restore is
	// the model checker's per-transition hot path.
	c.idx.reset()
	c.mruKey, c.mruLn = 0, nil
	for _, set := range c.sets {
		for i := range set {
			ln := &set[i]
			ln.hasTag = false
			ln.tag = 0
			ln.state = protocol.Invalid
			ln.lru = 0
			ln.installed = 0
		}
	}
	c.tick = 0
	c.BWReg = BusyWaitRegister{}
	for _, snap := range lines {
		set := c.sets[c.setIndex(snap.Block)]
		var ln *line
		for i := range set {
			if !set[i].hasTag {
				ln = &set[i]
				break
			}
		}
		if ln == nil {
			panic(fmt.Sprintf("cache %d: Restore overflows set %d", c.id, c.setIndex(snap.Block)))
		}
		c.tick++
		ln.hasTag = true
		ln.tag = snap.Block
		c.idx.put(snap.Block, ln)
		ln.state = snap.State
		if len(ln.data) != c.geom.BlockWords {
			ln.data = make([]uint64, c.geom.BlockWords)
		} else {
			for i := range ln.data {
				ln.data[i] = 0
			}
		}
		copy(ln.data, snap.Data)
		if len(ln.unitDirty) != c.geom.Units() {
			ln.unitDirty = make([]bool, c.geom.Units())
		} else {
			for i := range ln.unitDirty {
				ln.unitDirty[i] = false
			}
		}
		ln.lru = c.tick
		ln.installed = c.tick
	}
}

// FrameView returns the state and a read-only data view of the frame
// holding block b — including a tag-only invalid frame kept for
// invalid-line snooping — or ok=false when b occupies no frame. It is
// the no-copy accessor of the model checker's state encoder.
func (c *Cache) FrameView(b addr.Block) (st protocol.State, data []uint64, ok bool) {
	if ln := c.find(b, true); ln != nil {
		return ln.state, ln.data, true
	}
	return protocol.Invalid, nil, false
}

// SetState forces block b's state (used by Finish after bus
// completion and by scenario tests).
func (c *Cache) SetState(b addr.Block, st protocol.State) {
	ln := c.find(b, true)
	if ln == nil {
		panic(fmt.Sprintf("cache %d: SetState on absent block %d", c.id, b))
	}
	ln.state = st
	if st == protocol.Invalid && !c.snoopsInvalid {
		// Keep the tag only if invalid lines snoop.
		c.idxDel(ln.tag)
		ln.hasTag = false
	}
	c.touch(ln)
}

// ReadWord returns the cached word at a; ok is false when the block
// is not valid here.
func (c *Cache) ReadWord(a addr.Addr) (v uint64, ok bool) {
	ln := c.find(c.geom.BlockOf(a), false)
	if ln == nil {
		return 0, false
	}
	return ln.data[c.geom.Offset(a)], true
}

// WriteWord stores v at a in the cached copy, marking the transfer
// unit dirty; ok is false when the block is not valid here.
func (c *Cache) WriteWord(a addr.Addr, v uint64) bool {
	ln := c.find(c.geom.BlockOf(a), false)
	if ln == nil {
		return false
	}
	ln.data[c.geom.Offset(a)] = v
	ln.unitDirty[c.geom.UnitOf(a)] = true
	return true
}

// SupplyWords returns the bus word cost of this cache supplying block
// b for a request on word a (Section D.3: requested unit plus all
// dirty units in unit mode; the whole block otherwise).
func (c *Cache) SupplyWords(b addr.Block, a addr.Addr) int {
	if !c.cfg.UnitMode {
		return c.geom.BlockWords
	}
	ln := c.find(b, false)
	if ln == nil {
		return c.geom.BlockWords
	}
	want := make([]bool, c.geom.Units())
	want[c.geom.UnitOf(a)] = true
	for u, d := range ln.unitDirty {
		if d {
			want[u] = true
		}
	}
	n := 0
	for _, w := range want {
		if w {
			n += c.geom.TransferWords
		}
	}
	return n
}

// Snoop implements bus.Snooper: it runs the protocol's bus-side logic
// against the local copy of t.Block and applies the outcome — line
// assertions, data supply, snoop-time flush, word updates, state
// changes, and the busy-wait register reaction to Unlock broadcasts.
func (c *Cache) Snoop(t *bus.Transaction) {
	c.bump(&c.snoopSeenH, "snoop.seen")

	// The busy-wait register watches Unlock broadcasts regardless of
	// line state (the line is typically invalid while waiting).
	if t.Cmd == bus.Unlock && c.BWReg.Armed && c.BWReg.Block == t.Block {
		c.bump(&c.wakeupH, "bwreg.wakeup")
	}

	ln := c.find(t.Block, c.snoopsInvalid)
	if ln == nil {
		return
	}
	c.bump(&c.tagmatchH, "snoop.tagmatch")

	var res protocol.SnoopResult
	if c.tab != nil {
		res = c.tab.Snoop(ln.state, t)
	} else {
		res = c.proto.Snoop(ln.state, t)
	}

	if res.Hit {
		t.Lines.Hit = true
	}
	if res.Locked {
		t.Lines.Locked = true
		c.bump(&c.lockedH, "snoop.locked-denial")
	}
	if res.Supply {
		t.Lines.SourceHit = true
		t.Lines.Inhibit = true
		if res.Dirty {
			t.Lines.Dirty = true
		}
		t.Suppliers = append(t.Suppliers, c.id)
		if t.BlockData == nil {
			t.SupplyBlock(ln.data)
			t.SupplyWordCount = c.SupplyWords(t.Block, t.Addr)
			if res.Dirty {
				t.SupplyDirty(ln.unitDirty)
			}
		}
		c.bump(&c.supplyH, "snoop.supply")
	}
	if res.Flush {
		t.Flushed = true
		if t.BlockData == nil {
			t.SupplyBlock(ln.data)
		}
		if c.mem != nil && t.Cmd == bus.None {
			// Direct flush outside a bus transaction (tests only).
			c.mem.WriteBlock(t.Block, ln.data)
		}
		c.bump(&c.flushH, "snoop.flush")
	}
	if res.UpdateWord || res.TakeWord {
		ln.data[c.geom.Offset(t.Addr)] = t.WordData
		c.bump(&c.updateH, "snoop.update")
	}

	if ln.state != protocol.Invalid && res.NewState == protocol.Invalid {
		c.bump(&c.invalH, "snoop.invalidated")
	}
	ln.state = res.NewState
	if res.NewState == protocol.Invalid && !c.snoopsInvalid {
		c.idxDel(ln.tag)
		ln.hasTag = false
	}
}
