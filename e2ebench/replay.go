package main

import (
	"os"
	"path/filepath"
	"strings"
	"time"
	"unicode/utf8"

	"github.com/hvscan/hvscan/internal/autofix"
	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/htmlparse"
	"github.com/hvscan/hvscan/internal/warc"
)

// Layers without an interface seam are measured by a traced replay: the
// run's own inputs are fed single-threaded through the layer's public
// function, after the measured passes, with nothing else running.

// largeFixtures are the checked-in 41–48 KB documents of the parser's
// benchmarks; serve mixes them into its traffic.
var largeFixtures = []string{"typical.html", "pathological.html"}

func loadLarge(root string) ([][]byte, error) {
	var out [][]byte
	for _, name := range largeFixtures {
		b, err := os.ReadFile(filepath.Join(root, "internal", "htmlparse", "testdata", "bench", name))
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// timeEach times f over every index and measures the heap bytes the
// whole loop allocates.
func timeEach(n int, f func(i int)) (ns, alloc float64) {
	alloc = allocBytes(func() {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			f(i)
			ns += float64(time.Since(t0))
		}
	})
	return ns, alloc
}

// warcReplay is the WARC decode cost of one pass, per analyzed page.
type warcReplay struct {
	pages     int
	ns, alloc float64
}

func (w warcReplay) usPerPage() float64    { return perOp(w.ns/1e3, w.pages) }
func (w warcReplay) allocPerPage() float64 { return perOp(w.alloc, w.pages) }

// replayWARC decodes the raw records as commoncrawl.FetchCapture does
// and returns the bodies that pass the crawler's filters.
func replayWARC(raw [][]byte) ([][]byte, warcReplay) {
	type capture struct {
		status int
		mime   string
		body   []byte
	}
	caps := make([]capture, len(raw))
	var w warcReplay
	w.ns, w.alloc = timeEach(len(raw), func(i int) {
		rec, err := warc.ReadRecordAt(raw[i], 0, int64(len(raw[i])))
		if err != nil {
			return
		}
		resp, err := warc.ParseHTTPResponse(rec.Block)
		if err != nil {
			return
		}
		caps[i] = capture{resp.StatusCode, resp.Headers.Get("Content-Type"), resp.Body}
	})
	var bodies [][]byte
	for _, c := range caps {
		if c.status == 200 && strings.HasPrefix(c.mime, "text/html") && utf8.Valid(c.body) {
			bodies = append(bodies, c.body)
		}
	}
	w.pages = len(bodies)
	return bodies, w
}

// pageReplay holds the per-layer totals of replaying a page list.
type pageReplay struct {
	pages                                      int
	preprocess, tokenize, parse, check, repair float64 // ns
	parseAlloc, checkAlloc, repairAlloc        float64 // bytes
}

// replayPages runs the pages through Preprocess, a drained tokenizer,
// ParseReuse, Checker.Check and, with repair set, autofix.Repair.
func replayPages(pages [][]byte, repair bool) *pageReplay {
	r := &pageReplay{pages: len(pages)}
	pre := make([][]byte, len(pages))
	r.preprocess, _ = timeEach(len(pages), func(i int) {
		if p, err := htmlparse.Preprocess(pages[i]); err == nil {
			pre[i] = p.Input
		}
	})
	r.tokenize, _ = timeEach(len(pages), func(i int) {
		z := htmlparse.NewTokenizer(pre[i])
		for z.Next().Type != htmlparse.EOFToken {
		}
	})
	r.parse, r.parseAlloc = timeEach(len(pages), func(i int) { htmlparse.ParseReuse(pages[i]) })
	checker := core.NewChecker()
	r.check, r.checkAlloc = timeEach(len(pages), func(i int) { checker.Check(pages[i]) })
	if repair {
		r.repair, r.repairAlloc = timeEach(len(pages), func(i int) { autofix.Repair(pages[i]) })
	}
	return r
}

func (r *pageReplay) us(ns float64) float64 { return perOp(ns/1e3, r.pages) }
func (r *pageReplay) treeUS() float64       { return r.us(selfTime(r.parse, r.preprocess, r.tokenize)) }
func (r *pageReplay) rulesUS() float64      { return r.us(selfTime(r.check, r.parse)) }
func (r *pageReplay) repairUS() float64     { return r.us(r.repair) }

func (r *pageReplay) figures() []figure {
	return []figure{
		{name: "htmlparse.preprocess_us_per_page", unit: "us", value: r.us(r.preprocess), n: r.pages},
		{name: "htmlparse.tokenize_us_per_page", unit: "us", value: r.us(r.tokenize), n: r.pages},
		{name: "htmlparse.tree_us_per_page", unit: "us", value: r.treeUS(), n: r.pages, note: "ParseReuse minus preprocess and tokenize"},
		{name: "htmlparse.parse_alloc_bytes_per_page", unit: "B", value: perOp(r.parseAlloc, r.pages), n: r.pages},
		{name: "core.rules_us_per_page", unit: "us", value: r.rulesUS(), n: r.pages, note: "Check minus ParseReuse"},
		{name: "core.check_alloc_bytes_per_page", unit: "B", value: perOp(r.checkAlloc, r.pages), n: r.pages},
		{name: "autofix.repair_us_per_page", unit: "us", value: r.repairUS(), n: r.pages},
		{name: "autofix.repair_alloc_bytes_per_page", unit: "B", value: perOp(r.repairAlloc, r.pages), n: r.pages},
	}
}

// largeReplay is the parse and check time of the large fixtures.
type largeReplay struct{ parseUS, checkUS float64 }

const largeReps = 15

// replayLarge times ParseReuse and Check on each large fixture and
// averages the per-fixture medians.
func replayLarge(large [][]byte) largeReplay {
	checker := core.NewChecker()
	var r largeReplay
	for _, b := range large {
		var parse, check dist
		for k := 0; k < largeReps; k++ {
			t0 := time.Now()
			htmlparse.ParseReuse(b)
			parse.addDur(time.Since(t0))
			t0 = time.Now()
			checker.Check(b)
			check.addDur(time.Since(t0))
		}
		r.parseUS += parse.median() / 1e3 / float64(len(large))
		r.checkUS += check.median() / 1e3 / float64(len(large))
	}
	return r
}

func (r largeReplay) figures() []figure {
	n := largeReps * len(largeFixtures)
	return []figure{
		{name: "htmlparse.parse_us_large", unit: "us", value: r.parseUS, n: n, note: "mean of per-fixture medians"},
		{name: "core.check_us_large", unit: "us", value: r.checkUS, n: n, note: "mean of per-fixture medians"},
	}
}
