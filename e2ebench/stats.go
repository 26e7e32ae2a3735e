package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Percentiles are ranked by nines: 50, 90, 99, 99.9, ... Each is the
// fraction num/den, kept integral so the "samples beyond" count is exact.
var percentileLadder = []struct {
	label    string
	num, den int
}{
	{"p50", 1, 2},
	{"p90", 9, 10},
	{"p99", 99, 100},
	{"p99.9", 999, 1000},
	{"p99.99", 9999, 10000},
	{"p99.999", 99999, 100000},
}

// rankOf is the 1-based nearest rank of the num/den quantile in n sorted
// samples: the smallest rank r with r/n >= num/den.
func rankOf(n, num, den int) int {
	r := (n*num + den - 1) / den
	if r < 1 {
		r = 1
	}
	return r
}

// beyond counts the samples strictly above the num/den quantile's rank.
func beyond(n, num, den int) int { return n - rankOf(n, num, den) }

// tailPercentile picks the highest percentile of the ladder that still
// has at least ten samples beyond it, so the tail figure rests on more
// than a handful of outliers. ok is false when even the median has
// fewer than ten samples beyond it (n < 20).
func tailPercentile(n int) (label string, num, den int, ok bool) {
	for i := len(percentileLadder) - 1; i >= 0; i-- {
		p := percentileLadder[i]
		if beyond(n, p.num, p.den) >= 10 {
			return p.label, p.num, p.den, true
		}
	}
	return "", 0, 0, false
}

// quantile returns the nearest-rank num/den quantile of sorted values.
func quantile(sorted []float64, num, den int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankOf(len(sorted), num, den)-1]
}

// dist is a sample of one timing or size, summarized on demand.
type dist struct{ v []float64 }

func (d *dist) add(x float64)          { d.v = append(d.v, x) }
func (d *dist) addDur(x time.Duration) { d.v = append(d.v, float64(x)) }
func (d *dist) n() int                 { return len(d.v) }
func (d *dist) sorted() []float64      { s := append([]float64(nil), d.v...); sort.Float64s(s); return s }
func (d *dist) q(num, den int) float64 { return quantile(d.sorted(), num, den) }
func (d *dist) median() float64        { return d.q(1, 2) }
func (d *dist) p99() float64           { return d.q(99, 100) }

func (d *dist) mean() float64 {
	if len(d.v) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range d.v {
		s += x
	}
	return s / float64(len(d.v))
}

// tail reports the highest well-supported percentile, for example
// "p99.9=5.21 (n=34012)", scaled by div; the median when n is too small.
func (d *dist) tail(div float64) string {
	label, num, den, ok := tailPercentile(d.n())
	if !ok {
		return fmt.Sprintf("p50=%.4g (n=%d)", d.median()/div, d.n())
	}
	return fmt.Sprintf("%s=%.4g (n=%d)", label, d.q(num, den)/div, d.n())
}

// The host is a VM whose hypervisor at times takes CPU time away from
// it (steal), in episodes of tens of seconds to minutes at 20-60%. A
// run is cut into intervals (crawl passes, serve slices, set-ups) and
// the end-to-end figures use only its quiet intervals, so an episode
// that covers part of a run does not move them. With no steal at all,
// every interval is quiet.

// quietSlack is how much more steal than the run's quietest interval
// an interval may see and still count as quiet: about the resolution
// of the kernel's steal counter over one interval.
const quietSlack = 0.03

// minQuiet is the fewest intervals a figure rests on.
const minQuiet = 4

// quiet returns the indices of the quiet intervals: every interval
// within quietSlack of the quietest, and at least the quietest eighth
// (no fewer than minQuiet).
func quiet(steal []float64) []int {
	if len(steal) == 0 {
		return nil
	}
	sorted := append([]float64(nil), steal...)
	sort.Float64s(sorted)
	k := min(max(minQuiet, (len(sorted)+7)/8), len(sorted))
	limit := max(sorted[k-1], sorted[0]+quietSlack)
	var idx []int
	for i, v := range steal {
		if v <= limit {
			idx = append(idx, i)
		}
	}
	return idx
}

// interval is one pass or slice of a run.
type interval struct {
	steal float64 // share of the machine's CPU time stolen meanwhile
	value float64 // operations per second, or seconds for a set-up
	lat   *dist   // operation latencies, ns
}

// summary holds, over a run's quiet intervals, the medians of their
// values and of their latency p50 and p99, and their pooled latencies.
type summary struct {
	value, p50, p99 float64
	intervals       int
	lat             dist
}

func summarize(ivs []interval) summary {
	steal := make([]float64, len(ivs))
	for i, iv := range ivs {
		steal[i] = iv.steal
	}
	var s summary
	var values, p50s, p99s dist
	for _, i := range quiet(steal) {
		iv := ivs[i]
		s.intervals++
		values.add(iv.value)
		if iv.lat != nil && iv.lat.n() > 0 {
			p50s.add(iv.lat.median())
			p99s.add(iv.lat.p99())
			s.lat.v = append(s.lat.v, iv.lat.v...)
		}
	}
	s.value, s.p50, s.p99 = values.median(), p50s.median(), p99s.median()
	return s
}

// outcome classifies one benchmark operation. Only ok is a success: a
// refused (429/503), errored (transport or pipeline error) or wrong
// (oracle mismatch) operation counts as failed.
type outcome int

const (
	opOK outcome = iota
	opRefused
	opErrored
	opWrong
)

// tally counts operations by outcome.
type tally struct{ ok, refused, errored, wrong int }

func (t *tally) record(o outcome) {
	switch o {
	case opOK:
		t.ok++
	case opRefused:
		t.refused++
	case opErrored:
		t.errored++
	default:
		t.wrong++
	}
}

func (t *tally) merge(o tally) {
	t.ok += o.ok
	t.refused += o.refused
	t.errored += o.errored
	t.wrong += o.wrong
}

func (t tally) attempted() int { return t.ok + t.refused + t.errored + t.wrong }
func (t tally) failed() int    { return t.refused + t.errored + t.wrong }

// failedShare is failed over attempted operations; 1 when nothing was
// attempted, since a run that did no work cannot count as clean.
func (t tally) failedShare() float64 {
	if t.attempted() == 0 {
		return 1
	}
	return float64(t.failed()) / float64(t.attempted())
}

// selfTime is a layer's time minus the time its children cover. Spans
// of one worker never overlap, so plain subtraction is exact.
func selfTime(total float64, children ...float64) float64 {
	for _, c := range children {
		total -= c
	}
	return total
}

// unattributedShare is the part of the end-to-end time per operation
// that no measured layer covers.
func unattributedShare(endToEnd float64, layers ...float64) float64 {
	if endToEnd <= 0 {
		return math.NaN()
	}
	return selfTime(endToEnd, layers...) / endToEnd
}

// overheadShare is how much longer an operation takes with tracing on,
// from the throughput of interleaved untraced and traced slices.
func overheadShare(untracedRate, tracedRate float64) float64 {
	if tracedRate <= 0 {
		return math.NaN()
	}
	return untracedRate/tracedRate - 1
}

// perOp divides a total by an operation count, 0 for no operations.
func perOp(total float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}
