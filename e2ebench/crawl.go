package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"github.com/hvscan/hvscan/internal/autofix"
	"github.com/hvscan/hvscan/internal/cdx"
	"github.com/hvscan/hvscan/internal/commoncrawl"
	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/corpus"
	"github.com/hvscan/hvscan/internal/crawler"
	"github.com/hvscan/hvscan/internal/store"
	"github.com/hvscan/hvscan/internal/tranco"
	"github.com/hvscan/hvscan/internal/warc"
)

// The crawl archive: the oldest and newest snapshots of the study
// window, whose markup differs most, over a 600-domain universe at up
// to ten pages per domain — about 8.5k analyzed pages per pass, enough
// that one pass takes over a second and its rate is steady.
var crawlSnapshots = []corpus.Snapshot{corpus.Snapshots[0], corpus.Snapshots[len(corpus.Snapshots)-1]}

const (
	crawlDomains = 600
	crawlPages   = 10
	crawlLists   = 5 // Tranco-style lists intersected into the dataset, as hvcrawl does
)

// domainTruth is the generator's ground truth for one domain in one
// snapshot: how many pages pass the crawler's filters, and the rules
// planted on them. It never comes from the checker.
type domainTruth struct {
	pages   int
	planted map[string]bool
}

// crawlBench drives the `hvcrawl -fix` batch path: crawler.New over an
// on-disk archive with Config.Fix, RunSnapshot per snapshot, then
// Store.WriteTo.
type crawlBench struct {
	workers int
	tmp     string
	g       *corpus.Generator
	dataset []string
	truth   map[string]map[string]*domainTruth // crawl -> domain
	sizes   dist                               // analyzed body bytes, one pass
	archive *commoncrawl.DiskArchive
	out     bytes.Buffer // reused Store.WriteTo target
}

func newCrawlBench(seed int64, workers int, tmp string) *crawlBench {
	c := &crawlBench{workers: workers, tmp: tmp}
	c.g = corpus.New(corpus.Config{Seed: seed, Domains: crawlDomains, MaxPages: crawlPages})
	for _, e := range tranco.IntersectTop(c.g.TrancoLists(crawlLists), crawlDomains) {
		c.dataset = append(c.dataset, e.Domain)
	}
	c.truth = make(map[string]map[string]*domainTruth)
	for _, snap := range crawlSnapshots {
		m := make(map[string]*domainTruth, len(c.dataset))
		for _, d := range c.dataset {
			t := &domainTruth{planted: make(map[string]bool)}
			for i := 0; i < min(c.g.PageCount(d, snap), crawlPages); i++ {
				status, ctype, body := c.g.PageHTTP(d, snap, i)
				if status != 200 || !strings.HasPrefix(ctype, "text/html") || !utf8.Valid(body) {
					continue
				}
				t.pages++
				c.sizes.add(float64(len(body)))
				for _, r := range c.g.PlantedRules(d, snap, i) {
					t.planted[r] = true
				}
			}
			m[d] = t
		}
		c.truth[snap.ID] = m
	}
	return c
}

// setup writes the archive in hvgen's on-disk layout and opens it.
func (c *crawlBench) setup() error {
	dir, err := os.MkdirTemp(c.tmp, "archive-")
	if err != nil {
		return err
	}
	for _, snap := range crawlSnapshots {
		if err := writeSnapshot(c.g, dir, snap); err != nil {
			return err
		}
	}
	c.archive, err = commoncrawl.OpenDisk(dir)
	return err
}

// close closes and removes the archive.
func (c *crawlBench) close() error {
	if c.archive == nil {
		return nil
	}
	c.archive.Close()
	c.archive = nil
	entries, err := os.ReadDir(c.tmp)
	for _, e := range entries {
		if rerr := os.RemoveAll(filepath.Join(c.tmp, e.Name())); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}

// writeSnapshot writes one crawl directory as cmd/hvgen does: a WARC
// segment holding a warcinfo record and a request/response pair per
// page, and a CDXJ index pointing at the responses.
func writeSnapshot(g *corpus.Generator, root string, snap corpus.Snapshot) error {
	dir := filepath.Join(root, snap.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	const segment = "segment-0001.warc.gz"
	name := snap.ID + "/" + segment
	f, err := os.Create(filepath.Join(dir, segment))
	if err != nil {
		return err
	}
	defer f.Close()
	w := newMemberWriter(f)
	if _, _, err := w.write(warc.NewWarcinfo(name, snap.Date, map[string]string{"isPartOf": snap.ID})); err != nil {
		return err
	}
	index := &cdx.Index{}
	for _, domain := range g.Universe() {
		for i := 0; i < g.PageCount(domain, snap); i++ {
			status, ctype, body := g.PageHTTP(domain, snap, i)
			url := g.PageURL(domain, i)
			rec := warc.NewResponse(url, snap.Date, warc.BuildHTTPResponse(status, ctype, body))
			req := warc.NewRequest(url, snap.Date, warc.BuildHTTPRequest(url), rec.Headers.Get(warc.HeaderRecordID))
			if _, _, err := w.write(req); err != nil {
				return err
			}
			off, length, err := w.write(rec)
			if err != nil {
				return err
			}
			mime, _, _ := strings.Cut(ctype, ";")
			index.Add(&cdx.Record{
				SURT: cdx.SURT(url), Timestamp: cdx.Timestamp(snap.Date), URL: url,
				MIME: mime, Status: status, Length: length, Offset: off, Filename: name,
			})
		}
	}
	if err := w.out.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	idx, err := os.Create(filepath.Join(dir, "index.cdxj"))
	if err != nil {
		return err
	}
	if _, err := index.WriteTo(idx); err != nil {
		idx.Close()
		return err
	}
	return idx.Close()
}

// memberWriter writes each record as its own gzip member, byte for byte
// what warc.NewWriter produces, but reuses one compressor: warc.Writer
// allocates a fresh one per record, which made writing the archive take
// several times longer than crawling it.
type memberWriter struct {
	out    *bufio.Writer
	off    int64
	plain  bytes.Buffer
	pw     *warc.Writer
	member bytes.Buffer
	gz     *gzip.Writer
}

func newMemberWriter(w io.Writer) *memberWriter {
	m := &memberWriter{out: bufio.NewWriterSize(w, 256<<10)}
	m.pw = warc.NewPlainWriter(&m.plain)
	m.gz = gzip.NewWriter(&m.member)
	return m
}

func (m *memberWriter) write(r *warc.Record) (offset, length int64, err error) {
	m.plain.Reset()
	if _, _, err := m.pw.Write(r); err != nil {
		return 0, 0, err
	}
	m.member.Reset()
	m.gz.Reset(&m.member)
	if _, err := m.gz.Write(m.plain.Bytes()); err != nil {
		return 0, 0, err
	}
	if err := m.gz.Close(); err != nil {
		return 0, 0, err
	}
	n, err := m.out.Write(m.member.Bytes())
	offset = m.off
	m.off += int64(n)
	return offset, int64(n), err
}

// clock accumulates the spans of one layer across worker goroutines.
type clock struct{ ns, n atomic.Int64 }

func (c *clock) since(t0 time.Time) { c.ns.Add(int64(time.Since(t0))); c.n.Add(1) }

// crawlSpans collects the layer spans of traced passes.
type crawlSpans struct {
	query, read, check clock
	readBytes          atomic.Int64
	keep               bool // keep the raw records read, for the replay
	mu                 sync.Mutex
	raw                [][]byte
}

// timedArchive wraps the archive seam. It always notes when a domain's
// index query started, so the domain latency can be taken when the
// pipeline reports the domain done; with spans set it also times every
// call.
type timedArchive struct {
	inner commoncrawl.Archive
	spans *crawlSpans // nil on untraced passes
	mu    sync.Mutex
	start map[string]time.Time // crawl+"\x00"+domain -> query start
}

func (a *timedArchive) Crawls() []string { return a.inner.Crawls() }

func (a *timedArchive) Query(ctx context.Context, crawl, domain string, limit int) ([]*cdx.Record, error) {
	t0 := time.Now()
	recs, err := a.inner.Query(ctx, crawl, domain, limit)
	if a.spans != nil {
		a.spans.query.since(t0)
	}
	if len(recs) > 0 {
		a.mu.Lock()
		a.start[crawl+"\x00"+domain] = t0
		a.mu.Unlock()
	}
	return recs, err
}

func (a *timedArchive) ReadRange(ctx context.Context, filename string, offset, length int64) ([]byte, error) {
	t0 := time.Now()
	b, err := a.inner.ReadRange(ctx, filename, offset, length)
	if s := a.spans; s != nil {
		s.read.since(t0)
		s.readBytes.Add(int64(len(b)))
		if s.keep && err == nil {
			s.mu.Lock()
			s.raw = append(s.raw, b)
			s.mu.Unlock()
		}
	}
	return b, err
}

// done returns how long ago the domain's query started, for domains
// that had captures.
func (a *timedArchive) done(crawl, domain string) (time.Duration, bool) {
	k := crawl + "\x00" + domain
	a.mu.Lock()
	t0, ok := a.start[k]
	delete(a.start, k)
	a.mu.Unlock()
	return time.Since(t0), ok
}

// timedChecker wraps the crawler.Checker seam with a span.
type timedChecker struct {
	inner crawler.Checker
	span  *clock
}

func (t timedChecker) Check(html []byte) (*core.Report, error) {
	t0 := time.Now()
	rep, err := t.inner.Check(html)
	t.span.since(t0)
	return rep, err
}

// crawlPass is one hvcrawl run: every snapshot, then the store dump.
type crawlPass struct {
	traced        bool
	pagesFound    int
	pages         int // analyzed
	domains       int // stored domain results
	snapWall      time.Duration
	writeWall     time.Duration
	storeBytes    int
	fixOutcomes   map[string]int
	domainLatency dist
	ops           tally
	rt            runtimeSample
	steal         float64
}

func (p *crawlPass) interval() interval {
	return interval{steal: p.steal, value: float64(p.pages) / (p.snapWall + p.writeWall).Seconds(), lat: &p.domainLatency}
}

func (c *crawlBench) pass(ctx context.Context, spans *crawlSpans) (*crawlPass, error) {
	p := &crawlPass{traced: spans != nil, fixOutcomes: make(map[string]int)}
	arch := &timedArchive{inner: c.archive, spans: spans, start: make(map[string]time.Time)}
	var chk crawler.Checker = core.NewChecker()
	if spans != nil {
		chk = timedChecker{inner: chk, span: &spans.check}
	}
	st := store.New()
	pipe := crawler.New(arch, chk, st, crawler.Config{
		Workers:        c.workers,
		PagesPerDomain: crawlPages,
		Fix:            true,
		Progress: func(crawl, domain string, _, _ int) {
			if d, ok := arch.done(crawl, domain); ok {
				p.domainLatency.addDur(d)
			}
		},
	})
	rt0, steal := readRuntime(), markSteal()
	stats := make([]store.CrawlStats, len(crawlSnapshots))
	runErrs := make([]error, len(crawlSnapshots))
	t0 := time.Now()
	for i, snap := range crawlSnapshots {
		stats[i], runErrs[i] = pipe.RunSnapshot(ctx, snap.ID, c.dataset)
	}
	t1 := time.Now()
	c.out.Reset()
	n, err := st.WriteTo(&c.out)
	t2 := time.Now()
	p.rt, p.steal = readRuntime().sub(rt0), steal.share()
	if err != nil {
		return nil, fmt.Errorf("store dump: %w", err)
	}
	p.snapWall, p.writeWall = t1.Sub(t0), t2.Sub(t1)
	p.storeBytes, p.domains = int(n), st.Len()
	for i, s := range stats {
		p.pagesFound += s.PagesFound
		p.pages += s.PagesAnalyzed
		for k, v := range s.FixOutcomes {
			p.fixOutcomes[k] += v
		}
		p.ops.merge(c.verify(crawlSnapshots[i].ID, s, runErrs[i], st))
	}
	return p, nil
}

// verify is the crawl oracle, one operation per (snapshot, domain):
// the domain must be stored exactly when the generator says it has
// analyzable pages, with that many pages analyzed and every planted
// rule detected; its repair outcome counts must sum to its analyzed
// pages, and the snapshot's to the snapshot's.
func (c *crawlBench) verify(crawl string, s store.CrawlStats, runErr error, st *store.Store) tally {
	var t tally
	failed := make(map[string]bool)
	for _, f := range s.Failed {
		failed[f.Domain] = true
	}
	snapshotOK := sum(s.FixOutcomes) == s.PagesAnalyzed
	for _, d := range c.dataset {
		switch {
		case failed[d]:
			t.record(opErrored)
		case snapshotOK && c.domainOK(c.truth[crawl][d], st.Get(crawl, d)):
			t.record(opOK)
		case runErr != nil:
			t.record(opErrored)
		default:
			t.record(opWrong)
		}
	}
	return t
}

func (c *crawlBench) domainOK(truth *domainTruth, dr *store.DomainResult) bool {
	if truth.pages == 0 {
		return dr == nil
	}
	if dr == nil || dr.PagesAnalyzed != truth.pages || dr.PagesFailed != 0 {
		return false
	}
	for r := range truth.planted {
		if dr.Violations[r] == 0 {
			return false
		}
	}
	return sum(dr.FixOutcomes) == dr.PagesAnalyzed
}

func sum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// runCrawl measures the crawl-fix workload. Untraced, it runs
// passes until the time is up and reports the end-to-end figures; with
// tracing it alternates untraced and traced passes, so the tracing
// overhead is measured under the same conditions, then replays the
// first traced pass's records through the layers that have no seam.
func runCrawl(ctx context.Context, o options, large [][]byte) (*report, error) {
	c := newCrawlBench(o.seed, o.workers, o.tmp)
	defer c.close()
	setup, err := timeSetup(c.setup, c.close)
	if err != nil {
		return nil, err
	}
	r := &report{setup: setup, input: inputDescriptor{Pages: sumTruthPages(c.truth), BytesP50: c.sizes.median(), BytesP99: c.sizes.p99()}}

	warm, err := c.pass(ctx, nil)
	if err != nil {
		return nil, err
	}
	r.ops.merge(warm.ops)

	// Traced and untraced passes alternate; all traced passes share one
	// set of spans, and the first keeps its raw records for the replay.
	var spans *crawlSpans
	if o.trace {
		spans = &crawlSpans{keep: true}
	}
	var passes []*crawlPass
	var untraced, traced []interval
	start := time.Now()
	for i := 0; time.Since(start) < o.seconds || len(traced) == 0 && o.trace; i++ {
		var s *crawlSpans
		if o.trace && i%2 == 1 {
			s = spans
		}
		p, err := c.pass(ctx, s)
		if err != nil {
			return nil, err
		}
		if s != nil {
			spans.keep = false
			traced = append(traced, p.interval())
		} else {
			untraced = append(untraced, p.interval())
		}
		passes = append(passes, p)
		r.ops.merge(p.ops)
	}

	q := summarize(untraced)
	note := fmt.Sprintf("quiet %d of %d passes of %d pages", q.intervals, len(untraced), passes[0].pages)
	r.e2e = []figure{
		{name: "pages_per_s", unit: "1/s", value: q.value, n: len(untraced), note: "median over " + note},
		{name: "latency_p50_ms", unit: "ms", value: q.p50 / 1e6, n: q.lat.n(), note: "domain latency, index query to stored result, over " + note},
		{name: "latency_p99_ms", unit: "ms", value: q.p99 / 1e6, n: q.lat.n(), note: "median of per-interval p99; highest supported overall " + q.lat.tail(1e6)},
	}
	if o.trace {
		r.layers, r.budget = c.layers(passes, spans, overheadShare(q.value, summarize(traced).value), large)
	}
	return r, nil
}

func sumTruthPages(truth map[string]map[string]*domainTruth) int {
	n := 0
	for _, m := range truth {
		for _, t := range m {
			n += t.pages
		}
	}
	return n
}

// layers turns the traced passes and the replay into the per-layer
// figures and the budget table. Per-page figures divide by analyzed
// pages throughout.
func (c *crawlBench) layers(passes []*crawlPass, spans *crawlSpans, overhead float64, largeBodies [][]byte) ([]figure, []budgetRow) {
	var pages, domains int
	var snapWall, writeWall time.Duration
	var rt runtimeSample
	var first *crawlPass
	for _, p := range passes {
		if !p.traced {
			continue
		}
		if first == nil {
			first = p
		}
		pages += p.pages
		domains += p.domains
		snapWall += p.snapWall
		writeWall += p.writeWall
		rt = rt.add(p.rt)
	}
	us := func(ns int64) float64 { return perOp(float64(ns)/1e3, pages) }
	query, read, check := us(spans.query.ns.Load()), us(spans.read.ns.Load()), us(spans.check.ns.Load())
	workerTime := float64(c.workers) * float64(snapWall.Microseconds()) / float64(pages)
	encode := float64(writeWall.Microseconds()) / float64(pages)

	bodies, dec := replayWARC(spans.raw)
	rp := replayPages(bodies, true)
	large := replayLarge(largeBodies)
	self := selfTime(workerTime, query, read, check)
	endToEnd := workerTime + encode
	attributed := []float64{query, read, dec.usPerPage(), check, rp.repairUS(), encode}

	figs := []figure{
		{name: "commoncrawl.query_us", unit: "us", value: perOp(float64(spans.query.ns.Load())/1e3, int(spans.query.n.Load())), n: int(spans.query.n.Load())},
		{name: "commoncrawl.read_us", unit: "us", value: perOp(float64(spans.read.ns.Load())/1e3, int(spans.read.n.Load())), n: int(spans.read.n.Load())},
		{name: "commoncrawl.read_bytes_per_page", unit: "count", value: perOp(float64(spans.readBytes.Load()), pages), n: pages},
		{name: "warc.decode_us_per_page", unit: "us", value: dec.usPerPage(), n: dec.pages},
		{name: "warc.decode_alloc_bytes_per_page", unit: "B", value: dec.allocPerPage(), n: dec.pages},
		{name: "core.check_us_per_page", unit: "us", value: check, n: int(spans.check.n.Load())},
		{name: "crawler.self_us_per_page", unit: "us", value: self, n: pages, note: "workers x wall minus archive and check spans"},
		{name: "crawler.analyzed_ratio", unit: "ratio", value: float64(first.pages) / float64(first.pagesFound), n: first.pagesFound},
		{name: "store.encode_us_per_domain", unit: "us", value: perOp(float64(writeWall.Microseconds()), domains), n: domains},
		{name: "store.bytes_per_domain", unit: "count", value: float64(first.storeBytes) / float64(first.domains), n: first.domains},
		{name: "autofix.pages_fixed", unit: "count", value: float64(first.fixOutcomes[string(autofix.OutcomeFixed)]), n: first.pages},
		{name: "autofix.pages_partial", unit: "count", value: float64(first.fixOutcomes[string(autofix.OutcomePartial)]), n: first.pages},
		{name: "autofix.pages_unfixable", unit: "count", value: float64(first.fixOutcomes[string(autofix.OutcomeUnfixable)]), n: first.pages},
		{name: "autofix.pages_clean", unit: "count", value: float64(first.fixOutcomes[string(autofix.OutcomeClean)]), n: first.pages},
		{name: "runtime.gc_cpu_share", unit: "ratio", value: rt.gcShare(), n: pages},
		{name: "runtime.alloc_bytes_per_op", unit: "B", value: perOp(rt.allocBytes, pages), n: pages, note: "per analyzed page"},
		{name: "budget.unattributed_share", unit: "ratio", value: unattributedShare(endToEnd, attributed...), n: pages},
		{name: "trace.overhead_share", unit: "ratio", value: overhead, n: len(passes)},
	}
	figs = append(figs, rp.figures()...)
	figs = append(figs, large.figures()...)

	budget := []budgetRow{
		{layer: "commoncrawl.query (span)", us: query},
		{layer: "commoncrawl.read (span)", us: read},
		{layer: "warc.decode (replay)", us: dec.usPerPage()},
		{layer: "core.check (span)", us: check},
		{layer: "  htmlparse.preprocess (replay)", us: rp.us(rp.preprocess), part: true},
		{layer: "  htmlparse.tokenize (replay)", us: rp.us(rp.tokenize), part: true},
		{layer: "  htmlparse.tree (replay)", us: rp.treeUS(), part: true},
		{layer: "  core.rules (replay)", us: rp.rulesUS(), part: true},
		{layer: "autofix.repair (replay)", us: rp.repairUS()},
		{layer: "store.encode (timed WriteTo)", us: encode},
	}
	budget = append(budget, budgetTotals(endToEnd, fmt.Sprintf("%d workers x RunSnapshot wall + WriteTo wall", c.workers), attributed...)...)
	budget = append(budget, budgetRow{layer: "crawler.self (wall minus spans)", us: self, part: true})
	return figs, budget
}
