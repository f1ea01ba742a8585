package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cachesync/internal/mcheck"
	"cachesync/internal/protocol"
	"cachesync/internal/serve"
	"cachesync/internal/simrun"
)

// serve-sync: small synchronization-pattern requests against an
// in-process serve.Handler on loopback, from at most runtime.NumCPU()
// senders over as many connections. After a warm-up, one sender sends
// back to back (closed loop) for the whole run. A traced run first
// sends on a fixed schedule (open loop) at a low and a high rate, and
// after the closed loop climbs a ladder of rates until one misses the
// tail limit or its backlog grows.
var serveSync = &benchWorkload{
	name:      "serve-sync",
	protocols: protocol.Names(), // the check bodies cover every protocol
	setup:     setupServe,
	measure:   measureServe,
}

const (
	serveLowRate  = 100.0 // requests/s
	serveHighRate = 200.0 // requests/s
	// serveTailLimit bounds a rung's tail latency (from due time).
	serveTailLimit = 50 * time.Millisecond
	// The ladder's rungs are serveHighRate * serveLadderStep^k
	// requests/s, 0 < k <= serveLadderRungs; it is climbed only when
	// the high rate meets the limit.
	serveLadderStep  = 1.12
	serveLadderRungs = 16
	// serveLateSend is how late a send may start before it counts as
	// late in serve.late_send_ratio.
	serveLateSend = time.Millisecond
	// closedWindow is the window the closed-loop capacity is counted
	// in.
	closedWindow = 250 * time.Millisecond
)

type serveState struct {
	base   string
	client *http.Client
}

// setupServe starts the daemon on a loopback listener and connects a
// client limited to NumCPU connections. The daemon runs without its
// on-disk result cache: on a disk shared with other tenants the
// cache's file writes moved the request latencies by a quarter from
// one run to the next, which would hide any change in the code.
func setupServe(e *env) (any, func(), error) {
	srv := serve.New(serve.Config{Workers: runtime.NumCPU()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	tr := &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()}
	st := &serveState{base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
	release := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx) // a timeout here only leaves connections to the exit
		<-served
		srv.Close()
		tr.CloseIdleConnections()
	}
	return st, release, nil
}

// reqBody is one distinct request body.
type reqBody struct {
	path  string
	data  []byte
	sim   simrun.Config
	check serve.CheckRequest
	// fixed marks a body first drawn for a fixed-rate phase; the seed
	// alone determines that set.
	fixed bool
}

// bodyStore holds every body a run draws, so that a sample's body
// index means the same body whichever generator drew it.
type bodyStore struct {
	bodies []reqBody
}

// bodyGen draws request bodies from the seed. Bodies are dealt from
// a shuffled deck of templates, so every stretch of len(deck) requests
// has the same mix and a phase's latencies do not move with the
// sampling noise of its mix; the seed picks the order and the
// simulation seeds.
type bodyGen struct {
	rng   *rand.Rand
	store *bodyStore
	// fixed marks the bodies this generator draws (reqBody.fixed).
	fixed bool
	// sent lists the body index of every request drawn so far.
	sent []int
	hand []reqBody
	// checks are the check bodies still to deal, in a seeded order;
	// every one is dealt before any comes round again.
	checks []serve.CheckRequest
	// simOnly deals simulation bodies only (the warm-up's).
	simOnly bool
}

// deck holds the body templates: lock across five protocols, lockdata
// at two tiers and remote 64, pc, queues and statesave, small mixed,
// and checks at p2 d5 over every protocol. An empty template repeats an earlier request's
// body (5 of 24).
var deck = func() []reqBody {
	var d []reqBody
	for _, p := range []string{"bitar", "illinois", "goodman", "berkeley", "locke"} {
		d = append(d, reqBody{sim: simrun.Config{Protocol: p, Workload: "lock"}})
	}
	d = append(d, reqBody{sim: simrun.Config{Protocol: "bitar", Workload: "lockdata", Tiers: 2}},
		reqBody{sim: simrun.Config{Protocol: "bitar", Workload: "lockdata", Tiers: 2, RemoteCycles: 64}})
	for _, w := range []string{"pc", "queues", "statesave"} {
		for _, p := range []string{"bitar", "illinois"} {
			d = append(d, reqBody{sim: simrun.Config{Protocol: p, Workload: w}})
		}
	}
	for i := 0; i < 2; i++ {
		d = append(d, reqBody{sim: simrun.Config{Protocol: "bitar", Workload: "mixed", Ops: 50}})
	}
	for i := 0; i < 4; i++ {
		d = append(d, reqBody{path: "/v1/check"})
	}
	for i := 0; i < 5; i++ {
		d = append(d, reqBody{path: "repeat"})
	}
	return d
}()

// next returns the body index of the next request.
func (g *bodyGen) next() int {
	if len(g.hand) == 0 {
		g.hand = append(g.hand, deck...)
		g.rng.Shuffle(len(g.hand), func(i, j int) { g.hand[i], g.hand[j] = g.hand[j], g.hand[i] })
	}
	b := g.hand[0]
	g.hand = g.hand[1:]
	if g.simOnly && b.path != "" {
		return g.next()
	}
	if b.path == "repeat" && len(g.sent) > 0 {
		i := g.sent[g.rng.Intn(len(g.sent))]
		g.sent = append(g.sent, i)
		return i
	}
	var err error
	if b.path == "/v1/check" {
		if len(g.checks) == 0 {
			for _, p := range protocol.Names() {
				for _, words := range []int{1, 2} {
					for _, sym := range []bool{false, true} {
						g.checks = append(g.checks, serve.CheckRequest{Protocol: p, Procs: 2, Words: words, Depth: 5, Symmetry: sym})
					}
				}
			}
			g.rng.Shuffle(len(g.checks), func(i, j int) { g.checks[i], g.checks[j] = g.checks[j], g.checks[i] })
		}
		b.check = g.checks[0]
		g.checks = g.checks[1:]
		b.data, err = json.Marshal(b.check)
	} else {
		if b.sim.Protocol == "" { // a repeat with nothing to repeat yet
			b.sim = deck[0].sim
		}
		b.path = "/v1/simulate"
		b.sim.Seed = g.rng.Int63n(1<<40) + 1
		b.data, err = json.Marshal(b.sim)
	}
	if err != nil {
		panic(err) // plain structs always marshal
	}
	b.fixed = g.fixed
	g.store.bodies = append(g.store.bodies, b)
	i := len(g.store.bodies) - 1
	g.sent = append(g.sent, i)
	return i
}

// sample is one scheduled request.
type sample struct {
	body    int
	due     time.Time
	sent    time.Time
	done    time.Time
	skipped bool
	status  int
	xcache  string
	err     error
	// digest is the sha256 of the normalized response; badResp is why
	// the response could not be normalized.
	digest  [32]byte
	badResp error
}

func (s *sample) latency() time.Duration { return s.done.Sub(s.due) }

// phase is one fixed-rate stretch of the schedule.
type phase struct {
	name    string
	rate    float64
	samples []sample
}

// runPhase sends n requests at rate from start on, from NumCPU senders.
// A send that would start more than abortLate after its due time is
// skipped: the backlog has already failed the phase, and skipping
// keeps an overloaded rung from running on.
func runPhase(st *serveState, g *bodyGen, name string, rate float64, n int, abortLate time.Duration) phase {
	p := phase{name: name, rate: rate, samples: make([]sample, n)}
	for i := range p.samples {
		p.samples[i].body = g.next()
	}
	start := time.Now().Add(2 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := &p.samples[i]
				s.due = start.Add(time.Duration(float64(i) / rate * 1e9))
				waitUntil(s.due)
				s.sent = time.Now()
				if s.sent.Sub(s.due) > abortLate {
					s.skipped = true
					continue
				}
				send(st, &g.store.bodies[s.body], s)
			}
		}()
	}
	wg.Wait()
	return p
}

// runClosed keeps senders busy back to back for secs and returns the
// requests with the completion rate of each window of closedWindow;
// their median is the closed-loop capacity, which a stall of the
// shared host then does not set.
func runClosed(st *serveState, g *bodyGen, name string, senders int, secs float64) (phase, []float64) {
	p := phase{name: name}
	var mu sync.Mutex
	start := time.Now()
	deadline := start.Add(time.Duration(secs * 1e9))
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for {
				mu.Lock()
				now := time.Now()
				if now.After(deadline) {
					p.samples = append(p.samples, mine...)
					mu.Unlock()
					return
				}
				s := sample{body: g.next(), due: now, sent: now}
				b := g.store.bodies[s.body]
				mu.Unlock()
				send(st, &b, &s)
				mine = append(mine, s)
			}
		}()
	}
	wg.Wait()
	sort.Slice(p.samples, func(i, j int) bool { return p.samples[i].due.Before(p.samples[j].due) })
	window := min(closedWindow, deadline.Sub(start))
	windows := make([]float64, int(deadline.Sub(start)/window))
	for i := range p.samples {
		if k := int(p.samples[i].done.Sub(start) / window); k < len(windows) {
			windows[k]++
		}
	}
	for k := range windows {
		windows[k] /= window.Seconds()
	}
	p.rate = median(windows)
	return p, windows
}

// waitUntil sleeps until shortly before t and yields the processor
// until t: a plain sleep can wake a millisecond late, which would show
// as generator lateness in every request's latency.
func waitUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// send posts b and records the outcome in s. The response is reduced
// to the digest of its normalized form after s.done is taken, so the
// reduction is not timed, and a run holds a few bytes per request
// rather than every response: the peak resident set then does not grow
// with the number of requests a faster daemon completes.
func send(st *serveState, b *reqBody, s *sample) {
	var data []byte
	s.status, s.xcache, data, s.err = post(st, b.path, b.data)
	s.done = time.Now()
	if s.err == nil && s.status/100 == 2 {
		var norm []byte
		norm, s.badResp = normalizeResponse(b.path, data)
		s.digest = sha256.Sum256(norm)
	}
}

func post(st *serveState, path string, body []byte) (int, string, []byte, error) {
	resp, err := st.client.Post(st.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), data, err
}

// phaseStats summarizes one phase: latencies of the requests that
// completed with a 2xx, the tail over every scheduled request (a
// refused, failed or skipped one counts as missing the limit), and
// whether the send backlog grew.
type phaseStats struct {
	p50, tail, tailPct float64
	lateP50, lateMax   float64
	missed             int
	growing            bool
}

func summarize(p phase) phaseStats {
	var lat, late []float64
	var ps phaseStats
	for i := range p.samples {
		s := &p.samples[i]
		if s.skipped || s.err != nil || s.status/100 != 2 {
			ps.missed++
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, ms(s.latency()))
		late = append(late, ms(s.sent.Sub(s.due)))
	}
	ps.p50 = median(lat)
	ps.tail, ps.tailPct = tail(lat)
	ps.lateP50 = median(late)
	if len(late) > 0 {
		sort.Float64s(late)
		ps.lateMax = late[len(late)-1]
	}
	// The backlog grows when sends in the last quarter of the phase
	// start later than those in the first quarter.
	q := len(p.samples) / 4
	if q > 0 {
		first, last := lateness(p.samples[:q]), lateness(p.samples[len(p.samples)-q:])
		ps.growing = last-first > ms(serveTailLimit)/4
	}
	return ps
}

// windowed is the median over one-second windows (by due time) of
// stat applied to the latencies of each window's requests that keep
// selects: a stall of the shared host that covers less than half the
// windows does not move it.
func windowed(p phase, keep func(*sample) bool, stat func([]float64) float64) float64 {
	if len(p.samples) == 0 {
		return 0
	}
	t0 := p.samples[0].due
	var windows [][]float64
	for i := range p.samples {
		s := &p.samples[i]
		if !keep(s) {
			continue
		}
		k := int(s.due.Sub(t0) / time.Second)
		for len(windows) <= k {
			windows = append(windows, nil)
		}
		lat := math.Inf(1)
		if !s.skipped && s.err == nil && s.status/100 == 2 {
			lat = ms(s.latency())
		}
		windows[k] = append(windows[k], lat)
	}
	var stats []float64
	for _, w := range windows {
		if len(w) > 0 {
			stats = append(stats, stat(w))
		}
	}
	return median(stats)
}

func anySample(*sample) bool { return true }

// tailOf is tail without the percentile.
func tailOf(xs []float64) float64 {
	v, _ := tail(xs)
	return v
}

func lateness(ss []sample) float64 {
	var xs []float64
	for i := range ss {
		xs = append(xs, ms(ss[i].sent.Sub(ss[i].due)))
	}
	return median(xs)
}

func (ps phaseStats) meets() bool {
	return ps.missed == 0 && ps.tail <= ms(serveTailLimit) && !ps.growing
}

func measureServe(e *env, state any, seconds float64, tr *tracer) (*outcome, error) {
	st := state.(*serveState)
	o := newOutcome()
	// The fixed-rate schedule and the closed loop draw from generators
	// of their own, so the bodies of the fixed rates depend on the
	// seed alone, not on how many requests the closed loop completed.
	store := &bodyStore{}
	fixedGen := &bodyGen{rng: rand.New(rand.NewSource(e.seed)), store: store, fixed: true}
	closedGen := &bodyGen{rng: rand.New(rand.NewSource(e.seed + 1<<32)), store: store}
	// Warm the daemon up (connections, heap, code paths) with
	// simulation bodies of its own, drawn from another seed.
	warm, _ := runClosed(st, &bodyGen{rng: rand.New(rand.NewSource(^e.seed)), store: &bodyStore{}, simOnly: true},
		"warm", runtime.NumCPU(), min(2, seconds/10))
	for i := range warm.samples {
		if s := &warm.samples[i]; s.err != nil || s.status/100 != 2 {
			o.fail("warm-up request: status %d, error %v", s.status, s.err)
		}
	}
	before, err := scrapeMetrics(st)
	if err != nil {
		return nil, err
	}
	// The end-to-end figures come from the closed loop alone. At a
	// fixed low rate every request finds the cores idle and pays their
	// wake-up, which on a shared host moved the median by half between
	// runs of the same code; with two senders, the closed loop measured
	// how much of the second core the host's other tenants left. So the
	// fixed rates and the ladder run only in a traced run, where they
	// feed per-layer figures and are printed.
	var phases []phase
	maxRate := 0.0
	closedSecs := seconds
	if tr != nil {
		closedSecs = 0.25 * seconds
		low := runPhase(st, fixedGen, "low", serveLowRate, int(serveLowRate*0.25*seconds)+1, time.Hour)
		high := runPhase(st, fixedGen, "high", serveHighRate, int(serveHighRate*0.25*seconds)+1, time.Hour)
		phases = append(phases, low, high)
		ls, hs := summarize(low), summarize(high)
		o.name("serve_low_p50_ms", windowed(low, anySample, median), "ms")
		o.name(fmt.Sprintf("serve_low_tail_ms (p%.1f of %d)", ls.tailPct, len(low.samples)), ls.tail, "ms")
		o.name("serve_high_p50_ms", windowed(high, anySample, median), "ms")
		o.name(fmt.Sprintf("serve_high_tail_ms (p%.1f of %d)", hs.tailPct, len(high.samples)), hs.tail, "ms")
		if hs.meets() {
			maxRate = serveHighRate
		} else if ls.meets() {
			maxRate = serveLowRate
		}
	}
	closed, closedRates := runClosed(st, closedGen, "closed", 1, closedSecs)
	phases = append(phases, closed)
	if maxRate == serveHighRate {
		rungSecs := seconds / 80
		for r, rate := 0, serveHighRate*serveLadderStep; r < serveLadderRungs; r, rate = r+1, rate*serveLadderStep {
			p := runPhase(st, closedGen, fmt.Sprintf("rung%d", r), rate, int(rate*rungSecs)+1, 4*serveTailLimit)
			phases = append(phases, p)
			if !summarize(p).meets() {
				break
			}
			maxRate = rate
		}
	}

	// Everything below runs after the timed schedule. The direct runs
	// that verify the responses would otherwise set the peak.
	o.e2e["peak_rss_mb"] = peakRSSMB()
	metrics, err := scrapeMetrics(st)
	if err != nil {
		return nil, err
	}
	for k, v := range before { // leave the warm-up out of the counters
		metrics[k] -= v
	}
	exec := verifyServe(o, store, phases, tr)

	var total, execSum, waitSum float64
	var reqs, coalesced, shed, repeats, lateSends int
	seen := map[int]bool{}
	for _, p := range phases {
		for i := range p.samples {
			s := &p.samples[i]
			if seen[s.body] {
				repeats++
			}
			seen[s.body] = true
			if s.skipped {
				continue
			}
			reqs++
			o.attempted++
			if s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable {
				shed++
			}
			if s.err != nil || s.status/100 != 2 {
				o.fail("%s %s: status %d, error %v", p.name, store.bodies[s.body].path, s.status, s.err)
				continue
			}
			if s.xcache == "coalesced" {
				coalesced++
			} else {
				execSum += exec[s.body]
			}
			if s.sent.Sub(s.due) > serveLateSend {
				lateSends++
			}
			lat := ms(s.latency())
			total += lat
			waitSum += ms(s.sent.Sub(s.due))
			op := tr.record("op", -1, s.due, s.done)
			tr.record("serve.wait", op, s.due, s.sent)
			tr.record("serve.http", op, s.sent, s.done)
		}
	}

	isSim := func(s *sample) bool { return store.bodies[s.body].path == "/v1/simulate" }
	isCheck := func(s *sample) bool { return !isSim(s) }
	capacity := median(closedRates)
	o.e2e["base_ms"] = windowed(closed, isSim, median)
	o.e2e["alt_ms"] = windowed(closed, isCheck, median)
	o.e2e["tail_ms"] = windowed(closed, anySample, tailOf)
	o.e2e["capacity_per_s"] = capacity
	o.name("serve_simulate_p50_ms", o.e2e["base_ms"], "ms")
	o.name("serve_check_p50_ms", o.e2e["alt_ms"], "ms")
	o.name("serve_closed_tail_ms", o.e2e["tail_ms"], "ms")
	o.name("closed-loop capacity, one sender", capacity, "1/s")
	if tr != nil {
		o.name("serve_max_rps", maxRate, "1/s")
	}
	for _, p := range phases {
		ps := summarize(p)
		o.note("%-6s %6.0f/s %5d requests: p50 %.3f ms, tail %.3f ms (p%.1f), missed %d, growing backlog %v, generator late p50 %.3f ms max %.3f ms",
			p.name, p.rate, len(p.samples), ps.p50, ps.tail, ps.tailPct, ps.missed, ps.growing, ps.lateP50, ps.lateMax)
	}
	o.name("repeated body share", float64(repeats)/float64(max(len(seen)+repeats, 1)), "ratio")

	if tr != nil && total > 0 {
		handler := metrics[`cachesyncd_route_seconds_sum{route="POST /v1/simulate"}`] +
			metrics[`cachesyncd_route_seconds_sum{route="POST /v1/check"}`]
		l := o.layers
		l["serve.exec_pct"] = 100 * execSum / total
		l["serve.overhead_pct"] = 100 * (total - execSum) / total
		l["serve.handler_pct"] = 100 * handler * 1e3 / total
		// What neither the client's wait for a free sender nor the
		// server's handler covers: the HTTP transport and client stack.
		l["trace.residual_pct"] = 100 * (total - waitSum - handler*1e3) / total
		l["serve.max_rps"] = maxRate
		l["serve.coalesced"] = float64(coalesced)
		l["serve.shed"] = float64(shed)
		l["serve.repeat_ratio"] = float64(repeats) / float64(len(seen)+repeats)
		l["serve.late_send_ratio"] = float64(lateSends) / float64(reqs)
		l["serve.requests.simulate"] = metrics[`cachesyncd_requests_total{route="POST /v1/simulate"}`]
		l["serve.requests.check"] = metrics[`cachesyncd_requests_total{route="POST /v1/check"}`]
		o.name("serve.exec_ms", execSum, "ms")
		o.name("serve.overhead_ms", total-execSum, "ms")
	}
	return o, nil
}

// verifyServe checks every 2xx response against a direct run of its
// body: simrun.Run's output and cycles for a simulation, mcheck.Run's
// result for a check (with the timing fields cleared on both sides).
// It returns each body's direct execution time in ms. Untraced, the
// direct runs share out over NumCPU goroutines, as they are not timed
// as part of any metric. Traced, they run one at a time through the
// layer decomposition under "replay" spans, and the simulated and
// checker counts of the bodies drawn for the fixed-rate phases become
// per-layer values.
func verifyServe(o *outcome, store *bodyStore, phases []phase, tr *tracer) []float64 {
	ctx := context.Background()
	n := len(store.bodies)
	exec := make([]float64, n)
	want := make([][]byte, n)
	errs := make([]error, n)
	// fixedSim and fixedCheck count the bodies drawn for the
	// fixed-rate phases, a set the seed alone determines; otherSim and
	// otherCheck count those of the closed loop and the ladder, whose
	// number depends on speed.
	fixedSim, otherSim := newSimCounts(), newSimCounts()
	fixedCheck, otherCheck := &mcheckStats{}, &mcheckStats{}
	if tr == nil {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < runtime.NumCPU(); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= n {
						return
					}
					t0 := time.Now()
					want[i], errs[i] = directRun(ctx, &store.bodies[i], nil, -1, nil, &mcheckStats{})
					exec[i] = ms(time.Since(t0))
				}
			}()
		}
		wg.Wait()
	} else {
		for i := range store.bodies {
			b := &store.bodies[i]
			sim, chk := fixedSim, fixedCheck
			if !b.fixed {
				sim, chk = otherSim, otherCheck
			}
			root := tr.begin("replay", -1)
			t0 := time.Now()
			want[i], errs[i] = directRun(ctx, b, tr, root, sim, chk)
			exec[i] = ms(time.Since(t0))
			tr.end(root)
		}
	}
	for i, err := range errs {
		if err != nil {
			o.fail("direct run of %s %s: %v", store.bodies[i].path, store.bodies[i].data, err)
		}
	}
	for _, p := range phases {
		for j := range p.samples {
			s := &p.samples[j]
			if s.skipped || s.err != nil || s.status/100 != 2 || errs[s.body] != nil {
				continue // counted already
			}
			if s.badResp != nil || s.digest != sha256.Sum256(want[s.body]) {
				o.fail("%s %s %s: response differs from the direct run (%v)", p.name, store.bodies[s.body].path, store.bodies[s.body].data, s.badResp)
			}
		}
	}
	if tr != nil {
		fixedSim.layers(o.layers)
		fixedCheck.layers(o.layers)
		nameSimLayers(o, tr, fixedSim.runs+otherSim.runs, fixedSim.checks+otherSim.checks,
			float64(fixedSim.probeRefs+otherSim.probeRefs))
	}
	return exec
}

// directRun runs one body directly and returns its result in the form
// normalizeResponse gives a response. Traced (tr non-nil), a
// simulation goes through the layer decomposition under span root and
// counts into sim; a check counts into chk either way.
func directRun(ctx context.Context, b *reqBody, tr *tracer, root int, sim *simCounts, chk *mcheckStats) ([]byte, error) {
	if b.path == "/v1/simulate" {
		cfg := b.sim.Normalize()
		var res simrun.Result
		var err error
		if tr == nil {
			res, err = simrun.Run(ctx, cfg)
		} else {
			res, err = tracedSim(ctx, cfg, tr, root, sim)
		}
		if err != nil {
			return nil, err
		}
		return json.Marshal(simrunOutput{Pass: res.Pass, Cycles: res.Cycles, Output: res.Output})
	}
	opts, err := b.check.Normalize().Options()
	if err != nil {
		return nil, err
	}
	opts.Workers = runtime.NumCPU()
	res, _, err := runCheck(opts, tr, root, chk)
	if err != nil {
		return nil, err
	}
	if res.Counterexample != nil {
		return nil, fmt.Errorf("counterexample found")
	}
	return normalizedCheck(res)
}

// simrunOutput is the part of a /v1/simulate response a direct
// simrun.Run determines.
type simrunOutput struct {
	Pass   bool   `json:"pass"`
	Cycles int64  `json:"cycles"`
	Output string `json:"output"`
}

// normalizedCheck renders a check result without its timing fields.
func normalizedCheck(r mcheck.Result) ([]byte, error) {
	r.Elapsed, r.StatesPerSec = 0, 0
	return json.Marshal(r)
}

func normalizeResponse(path string, data []byte) ([]byte, error) {
	if path == "/v1/simulate" {
		var r serve.SimulateResponse
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, err
		}
		return json.Marshal(simrunOutput{Pass: r.Pass, Cycles: r.Cycles, Output: r.Output})
	}
	var r serve.CheckResponse
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	if !r.Pass {
		return nil, fmt.Errorf("check did not pass")
	}
	var res mcheck.Result
	if err := json.Unmarshal(r.Result, &res); err != nil {
		return nil, err
	}
	return normalizedCheck(res)
}

// scrapeMetrics reads the daemon's /metrics counters by series name.
func scrapeMetrics(st *serveState) (map[string]float64, error) {
	resp, err := st.client.Get(st.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d, %v", resp.StatusCode, err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}
