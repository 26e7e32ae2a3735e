package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/corpus"
	"github.com/hvscan/hvscan/internal/serve"
)

// The serve traffic mix: a cycle of request slots in blocks of 16. In
// each block one slot, at a seeded position, carries one of the large
// checked-in fixtures; the other fifteen carry seeded corpus pages.
// Small bodies make HTTP, admission and JSON cost dominant; the large
// ones put tree construction into the latency tail.
const (
	serveSmallBodies = 256
	serveBlock       = 16
	serveBlocks      = 64
	serveSlice       = 500 * time.Millisecond // about the rate and trace alternation granularity
	serveWarmup      = time.Second
	probeSeconds     = 2 * time.Second
	seqHeader        = "X-Bench-Seq"
)

// probeRates are the open-loop probe's fixed offered rates, about a
// quarter and a half of what two closed-loop connections complete on a
// 2-core host.
var probeRates = []int{1000, 2000}

// serveBench drives an in-process hvserve over loopback.
type serveBench struct {
	workers  int
	seed     int64
	large    [][]byte
	planted  [][]string // per corpus body; the fixtures have none planted
	schedule []int      // body index per request slot

	// Built by setup.
	bodies  [][]byte
	ref     []map[string]int // reference rule hits per body
	url     string
	handler *timedHandler
	stop    func() error
	client  *http.Client
}

func newServeBench(seed int64, workers int, large [][]byte) (*serveBench, error) {
	s := &serveBench{workers: workers, seed: seed, large: large}
	// serve.Bodies renders page 0 of the first n domains of the newest
	// snapshot; the same generator gives the rules planted on them.
	g := corpus.New(corpus.Config{Seed: seed, Domains: max(serveSmallBodies, 64), MaxPages: 4})
	snap := corpus.Snapshots[len(corpus.Snapshots)-1]
	bodies := serve.Bodies(seed, serveSmallBodies)
	for i, d := range g.Universe()[:serveSmallBodies] {
		if !bytes.Equal(g.PageHTML(d, snap, 0), bodies[i]) {
			return nil, fmt.Errorf("serve.Bodies no longer renders page 0 of %s", d)
		}
		s.planted = append(s.planted, g.PlantedRules(d, snap, 0))
	}
	rng := rand.New(rand.NewSource(seed))
	for b := 0; b < serveBlocks; b++ {
		largeAt := rng.Intn(serveBlock)
		for j := 0; j < serveBlock; j++ {
			if j == largeAt {
				s.schedule = append(s.schedule, serveSmallBodies+rng.Intn(len(large)))
			} else {
				s.schedule = append(s.schedule, rng.Intn(serveSmallBodies))
			}
		}
	}
	return s, nil
}

// setup renders the bodies, computes their reference reports and starts
// the server on a loopback listener.
func (s *serveBench) setup() error {
	s.bodies = append(serve.Bodies(s.seed, serveSmallBodies), s.large...)
	checker := core.NewChecker()
	s.ref = make([]map[string]int, len(s.bodies))
	for i, b := range s.bodies {
		rep, err := checker.Check(b)
		if err != nil {
			return fmt.Errorf("reference check of body %d: %w", i, err)
		}
		s.ref[i] = positive(rep.RuleHits)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := serve.New(serve.Config{TenantRate: -1})
	s.handler = &timedHandler{inner: srv, spans: make(map[int64]time.Duration)}
	hs := serve.NewHTTPServer(ln.Addr().String(), s.handler)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve.RunListener(ctx, hs, ln, 5*time.Second, srv.BeginDrain) }()
	tr := &http.Transport{MaxIdleConnsPerHost: s.workers, MaxConnsPerHost: s.workers, DisableCompression: true}
	s.client = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	s.url = "http://" + ln.Addr().String() + "/v1/check"
	s.stop = func() error {
		tr.CloseIdleConnections()
		cancel()
		return <-done
	}
	return nil
}

func (s *serveBench) close() error {
	if s.stop == nil {
		return nil
	}
	err := s.stop()
	s.stop = nil
	return err
}

func positive(hits map[string]int) map[string]int {
	out := make(map[string]int)
	for k, v := range hits {
		if v > 0 {
			out[k] = v
		}
	}
	return out
}

// timedHandler wraps *serve.Server and times the requests that carry a
// sequence header; the client sets it only on traced requests.
type timedHandler struct {
	inner http.Handler
	mu    sync.Mutex
	spans map[int64]time.Duration
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	seq, err := strconv.ParseInt(r.Header.Get(seqHeader), 10, 64)
	if err != nil {
		h.inner.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.inner.ServeHTTP(w, r)
	d := time.Since(t0)
	h.mu.Lock()
	h.spans[seq] = d
	h.mu.Unlock()
}

// sample is one traced request as the client saw it.
type sample struct {
	seq   int64
	body  int
	slice int
	lat   time.Duration
}

// loopResult is what a closed loop measured. It keeps per-slice
// latencies and only the traced requests individually, so that its own
// memory does not grow with throughput into the peak RSS it reports.
type loopResult struct {
	ops    tally
	slice  time.Duration
	slices []dist    // latencies of correct responses, ns, by start slice
	steal  []float64 // share of CPU time stolen, by slice
	traced []sample  // correct traced responses
}

func (l *loopResult) merge(o *loopResult) {
	l.ops.merge(o.ops)
	for i := range o.slices {
		l.slices[i].v = append(l.slices[i].v, o.slices[i].v...)
	}
	l.traced = append(l.traced, o.traced...)
}

// client is one connection's request loop state.
type client struct {
	s        *serveBench
	buf      bytes.Buffer
	verified map[int][]byte // body -> a response already checked by the oracle
}

func (s *serveBench) newClient() *client {
	return &client{s: s, verified: make(map[int][]byte)}
}

// do sends one request and classifies it with the oracle.
func (c *client) do(seq int64, body int, traced bool) outcome {
	req, err := http.NewRequest(http.MethodPost, c.s.url, bytes.NewReader(c.s.bodies[body]))
	if err != nil {
		return opErrored
	}
	req.Header.Set("Content-Type", "text/html; charset=utf-8")
	if traced {
		req.Header.Set(seqHeader, strconv.FormatInt(seq, 10))
	}
	resp, err := c.s.client.Do(req)
	if err != nil {
		return opErrored
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return opErrored
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		return opRefused
	case resp.StatusCode != http.StatusOK:
		return opErrored
	}
	if v, ok := c.verified[body]; ok && bytes.Equal(v, c.buf.Bytes()) {
		return opOK
	}
	if !c.s.correct(body, c.buf.Bytes()) {
		return opWrong
	}
	c.verified[body] = bytes.Clone(c.buf.Bytes())
	return opOK
}

// correct is the serve oracle: the response's rule hits must equal the
// reference check of the same body, and for corpus bodies every
// planted rule must be among them.
func (s *serveBench) correct(body int, resp []byte) bool {
	var cr serve.CheckResponse
	if json.Unmarshal(resp, &cr) != nil {
		return false
	}
	got := positive(cr.RuleHits)
	want := s.ref[body]
	if len(got) != len(want) {
		return false
	}
	for k, v := range want {
		if got[k] != v {
			return false
		}
	}
	if body < len(s.planted) {
		for _, r := range s.planted[body] {
			if got[r] == 0 {
				return false
			}
		}
	}
	return true
}

// closedLoop runs one request loop per connection for d, cut into
// equal slices of about serveSlice that alternate untraced and traced
// when trace is set.
func (s *serveBench) closedLoop(d time.Duration, trace bool) *loopResult {
	slices := max(1, int((d+serveSlice/2)/serveSlice))
	sliceLen := d / time.Duration(slices)
	var next atomic.Int64
	per := make([]*loopResult, s.workers)
	var wg sync.WaitGroup
	t0 := time.Now()
	end := t0.Add(d)
	stop := make(chan struct{})
	var steal []float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(sliceLen)
		defer tick.Stop()
		m := markSteal()
		for {
			select {
			case <-tick.C:
				steal = append(steal, m.share())
				m = markSteal()
			case <-stop:
				return
			}
		}
	}()
	var loops sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		per[w] = &loopResult{slices: make([]dist, slices)}
		loops.Add(1)
		go func(r *loopResult) {
			defer loops.Done()
			c := s.newClient()
			for {
				start := time.Now()
				if !start.Before(end) {
					return
				}
				seq := next.Add(1) - 1
				slice := min(int(start.Sub(t0)/sliceLen), slices-1)
				traced := trace && slice%2 == 1
				body := s.schedule[int(seq)%len(s.schedule)]
				out := c.do(seq, body, traced)
				lat := time.Since(start)
				r.ops.record(out)
				if out != opOK {
					continue
				}
				r.slices[slice].addDur(lat)
				if traced {
					r.traced = append(r.traced, sample{seq: seq, body: body, slice: slice, lat: lat})
				}
			}
		}(per[w])
	}
	loops.Wait()
	close(stop)
	wg.Wait()
	all := &loopResult{slice: sliceLen, slices: make([]dist, slices), steal: steal}
	for _, r := range per {
		all.merge(r)
	}
	return all
}

// probeResult is one open-loop rate of the diagnostic probe.
type probeResult struct {
	rate     int
	lat, lag dist // from due time; send time minus due time
	achieved float64
	ops      tally
}

// probe offers a fixed schedule of rate×probeSeconds requests from the
// connection pool. Latency runs from each request's due time, so a
// stall also counts against the requests queued behind it, and lag
// records how late the generator sent. Every scheduled request is sent
// and awaited; none is dropped at the end.
func (s *serveBench) probe(rate int) *probeResult {
	n := int(float64(rate) * probeSeconds.Seconds())
	interval := time.Second / time.Duration(rate)
	var next atomic.Int64
	var mu sync.Mutex
	r := &probeResult{rate: rate}
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := s.newClient()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				lag := time.Since(due)
				out := c.do(i, s.schedule[int(i)%len(s.schedule)], false)
				lat := time.Since(due)
				mu.Lock()
				r.ops.record(out)
				if out == opOK {
					r.lat.addDur(lat)
					r.lag.addDur(lag)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r.achieved = float64(r.ops.ok) / time.Since(start).Seconds()
	return r
}

// runServe measures the serve workload: a closed loop of one connection
// per CPU posting /v1/check. With tracing, untraced and traced slices
// alternate, then the open-loop probe runs and the bodies are replayed
// through the parse and check layers.
func runServe(o options, large [][]byte) (*report, error) {
	s, err := newServeBench(o.seed, o.workers, large)
	if err != nil {
		return nil, err
	}
	defer s.close()
	setup, err := timeSetup(s.setup, s.close)
	if err != nil {
		return nil, err
	}
	var sizes dist
	for _, b := range s.schedule {
		sizes.add(float64(len(s.bodies[b])))
	}
	r := &report{setup: setup, input: inputDescriptor{Pages: len(s.bodies), BytesP50: sizes.median(), BytesP99: sizes.p99()}}

	r.ops.merge(s.closedLoop(serveWarmup, false).ops)
	rt0 := readRuntime()
	loop := s.closedLoop(o.seconds, o.trace)
	rt := readRuntime().sub(rt0)
	r.ops.merge(loop.ops)

	var untraced, traced []interval
	for i := range loop.slices {
		iv := interval{value: float64(loop.slices[i].n()) / loop.slice.Seconds(), lat: &loop.slices[i]}
		if i < len(loop.steal) {
			iv.steal = loop.steal[i]
		}
		if o.trace && i%2 == 1 {
			traced = append(traced, iv)
		} else {
			untraced = append(untraced, iv)
		}
	}
	q := summarize(untraced)
	note := fmt.Sprintf("quiet %d of %d %s slices", q.intervals, len(untraced), loop.slice)
	r.e2e = []figure{
		{name: "pages_per_s", unit: "1/s", value: q.value, n: len(untraced), note: fmt.Sprintf("requests_per_s, %d connections; median over %s", s.workers, note)},
		{name: "latency_p50_ms", unit: "ms", value: q.p50 / 1e6, n: q.lat.n(), note: "client-observed request latency over " + note},
		{name: "latency_p99_ms", unit: "ms", value: q.p99 / 1e6, n: q.lat.n(), note: "median of per-interval p99; highest supported overall " + q.lat.tail(1e6)},
	}
	if o.trace {
		var probes []*probeResult
		for _, rate := range probeRates {
			p := s.probe(rate)
			r.ops.merge(p.ops)
			probes = append(probes, p)
		}
		r.layers, r.budget = s.layers(loop, rt, overheadShare(q.value, summarize(traced).value), probes)
	}
	return r, nil
}

func (s *serveBench) layers(loop *loopResult, rt runtimeSample, overhead float64, probes []*probeResult) ([]figure, []budgetRow) {
	// Replayed check time of each distinct body, median of three.
	checker := core.NewChecker()
	checkNS := make([]float64, len(s.bodies))
	for i, b := range s.bodies {
		var d dist
		for k := 0; k < 3; k++ {
			t0 := time.Now()
			checker.Check(b)
			d.addDur(time.Since(t0))
		}
		checkNS[i] = d.median()
	}
	s.handler.mu.Lock()
	spans := s.handler.spans
	s.handler.mu.Unlock()

	var handler, self, transport, check dist
	tracedOK := 0
	tracedSlices := make(map[int]bool)
	for _, smp := range loop.traced {
		tracedSlices[smp.slice] = true
		h, ok := spans[smp.seq]
		if !ok {
			continue
		}
		tracedOK++
		handler.addDur(h)
		check.add(checkNS[smp.body])
		self.add(selfTime(float64(h), checkNS[smp.body]))
		transport.add(selfTime(float64(smp.lat), float64(h)))
	}
	ops := loop.ops.attempted()
	shed := loop.ops.refused
	tracedWall := float64(len(tracedSlices)) * float64(loop.slice.Microseconds())
	cycle := perOp(float64(s.workers)*tracedWall, tracedOK)
	checkUS, selfUS, transportUS := check.mean()/1e3, self.mean()/1e3, transport.mean()/1e3

	var replay [][]byte
	for _, b := range s.schedule {
		replay = append(replay, s.bodies[b])
	}
	rp := replayPages(replay, false)
	large := replayLarge(s.large)

	figs := []figure{
		{name: "serve.handler_us_p50", unit: "us", value: handler.median() / 1e3, n: handler.n()},
		{name: "serve.handler_us_p99", unit: "us", value: handler.p99() / 1e3, n: handler.n(), note: "highest supported " + handler.tail(1e3)},
		{name: "serve.self_us", unit: "us", value: selfUS, n: self.n(), note: "mean handler time minus replayed check of the same body"},
		{name: "serve.transport_us", unit: "us", value: transportUS, n: transport.n(), note: "mean client latency minus handler time"},
		{name: "serve.shed", unit: "count", value: float64(shed), n: ops},
		{name: "core.check_us_per_page", unit: "us", value: checkUS, n: check.n(), note: "replayed, per traced request"},
		{name: "runtime.gc_cpu_share", unit: "ratio", value: rt.gcShare(), n: ops},
		{name: "runtime.alloc_bytes_per_op", unit: "B", value: perOp(rt.allocBytes, ops), n: ops, note: "per request, client and server in one process"},
		{name: "budget.unattributed_share", unit: "ratio", value: unattributedShare(cycle, checkUS, selfUS, transportUS), n: tracedOK},
		{name: "trace.overhead_share", unit: "ratio", value: overhead, n: len(tracedSlices)},
	}
	for _, p := range probes {
		pre := "probe.r" + strconv.Itoa(p.rate) + "."
		figs = append(figs,
			figure{name: pre + "latency_p50_ms", unit: "ms", value: p.lat.median() / 1e6, n: p.lat.n(), note: "open loop, from due time"},
			figure{name: pre + "latency_p99_ms", unit: "ms", value: p.lat.p99() / 1e6, n: p.lat.n(), note: "highest supported " + p.lat.tail(1e6)},
			figure{name: pre + "lag_p99_ms", unit: "ms", value: p.lag.p99() / 1e6, n: p.lag.n(), note: "generator lateness"},
			figure{name: pre + "achieved_per_s", unit: "1/s", value: p.achieved, n: p.ops.attempted()},
		)
	}
	figs = append(figs, rp.figures()...)
	figs = append(figs, large.figures()...)

	budget := []budgetRow{
		{layer: "core.check (replay)", us: checkUS},
		{layer: "  htmlparse.preprocess (replay)", us: rp.us(rp.preprocess), part: true},
		{layer: "  htmlparse.tokenize (replay)", us: rp.us(rp.tokenize), part: true},
		{layer: "  htmlparse.tree (replay)", us: rp.treeUS(), part: true},
		{layer: "  core.rules (replay)", us: rp.rulesUS(), part: true},
		{layer: "serve.self (handler span minus check)", us: selfUS},
		{layer: "serve.transport (latency minus handler)", us: transportUS},
	}
	budget = append(budget, budgetTotals(cycle, fmt.Sprintf("%d connections x traced wall / request", s.workers), checkUS, selfUS, transportUS)...)
	return figs, budget
}
