package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/hvscan/hvscan/internal/warc"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n     int
		label string
		ok    bool
	}{
		{0, "", false},
		{19, "", false}, // the median of 19 has 9 samples beyond it
		{20, "p50", true},
		{99, "p50", true},
		{100, "p90", true},
		{999, "p90", true}, // p99 of 999 has 9 beyond
		{1000, "p99", true},
		{9999, "p99", true},
		{10000, "p99.9", true},
		{43379, "p99.9", true},
		{100000, "p99.99", true},
		{1000000, "p99.999", true},
	} {
		label, num, den, ok := tailPercentile(tc.n)
		if label != tc.label || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %q, %v; want %q, %v", tc.n, label, ok, tc.label, tc.ok)
		}
		if ok && beyond(tc.n, num, den) < 10 {
			t.Errorf("tailPercentile(%d) = %s with only %d samples beyond", tc.n, label, beyond(tc.n, num, den))
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var d dist
	for i := 100; i >= 1; i-- {
		d.add(float64(i))
	}
	for _, tc := range []struct {
		num, den int
		want     float64
	}{{1, 2, 50}, {9, 10, 90}, {99, 100, 99}, {999, 1000, 100}} {
		if got := d.q(tc.num, tc.den); got != tc.want {
			t.Errorf("q(%d/%d) = %v, want %v", tc.num, tc.den, got, tc.want)
		}
	}
	if got := d.tail(1); got != "p90=90 (n=100)" {
		t.Errorf("tail = %q", got)
	}
	var few dist
	few.addDur(3 * time.Millisecond)
	if got := few.tail(1e6); got != "p50=3 (n=1)" {
		t.Errorf("tail of one sample = %q, want the median with n", got)
	}
}

func TestFailedShareCountsEveryFailureKind(t *testing.T) {
	var tl tally
	for _, o := range []outcome{opOK, opRefused, opOK, opErrored, opOK, opWrong, opOK} {
		tl.record(o)
	}
	if tl.attempted() != 7 || tl.failed() != 3 {
		t.Fatalf("attempted %d failed %d, want 7 and 3", tl.attempted(), tl.failed())
	}
	if got := tl.failedShare(); math.Abs(got-3.0/7) > 1e-12 {
		t.Errorf("failedShare = %v, want 3/7", got)
	}
	for _, o := range []outcome{opRefused, opErrored, opWrong} {
		var one tally
		one.record(o)
		if one.failedShare() != 1 {
			t.Errorf("outcome %d alone: failedShare %v, want 1", o, one.failedShare())
		}
	}
	var merged tally
	merged.merge(tl)
	merged.merge(tl)
	if merged.failed() != 6 || merged.attempted() != 14 {
		t.Errorf("merge: failed %d of %d", merged.failed(), merged.attempted())
	}
	if (tally{}).failedShare() != 1 {
		t.Error("a run that attempted nothing must not read as clean")
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	if got := selfTime(100, 30, 20, 5); got != 45 {
		t.Errorf("selfTime = %v, want 45", got)
	}
	if got := selfTime(7); got != 7 {
		t.Errorf("selfTime without children = %v", got)
	}
	if got := unattributedShare(200, 100, 50); got != 0.25 {
		t.Errorf("unattributedShare = %v, want 0.25", got)
	}
	if !math.IsNaN(unattributedShare(0, 1)) {
		t.Error("unattributedShare of an empty end to end must be NaN")
	}
	if got := overheadShare(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("overheadShare = %v, want 0.1", got)
	}
	if got := perOp(10, 0); got != 0 {
		t.Errorf("perOp over no operations = %v", got)
	}
	// The budget rows: layers that sum below the end to end leave the
	// difference unattributed.
	rows := budgetTotals(300, "x", 100, 120)
	if rows[0].us != 220 || rows[1].us != 300 || rows[2].us != 80 {
		t.Errorf("budgetTotals = %+v", rows)
	}
}

// The archive must be byte for byte what warc.NewWriter writes.
func TestMemberWriterMatchesWARCWriter(t *testing.T) {
	date := time.Date(2022, 1, 30, 0, 0, 0, 0, time.UTC)
	var recs []*warc.Record
	for _, u := range []string{"https://a.example/", "https://b.example/news/1"} {
		resp := warc.NewResponse(u, date, warc.BuildHTTPResponse(200, "text/html", []byte("<p>"+u)))
		recs = append(recs, warc.NewRequest(u, date, warc.BuildHTTPRequest(u), resp.Headers.Get(warc.HeaderRecordID)), resp)
	}
	var want, got bytes.Buffer
	ref := warc.NewWriter(&want)
	mw := newMemberWriter(&got)
	for _, r := range recs {
		o1, l1, err := ref.Write(r)
		if err != nil {
			t.Fatal(err)
		}
		o2, l2, err := mw.write(r)
		if err != nil {
			t.Fatal(err)
		}
		if o1 != o2 || l1 != l2 {
			t.Errorf("record at %d+%d, warc.Writer put it at %d+%d", o2, l2, o1, l1)
		}
	}
	if err := mw.out.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Error("member writer output differs from warc.NewWriter")
	}
}

// The metric lists the program reports must be the ones BENCHMARK.json
// declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, have []metricSpec) {
		if len(declared) != len(have) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(declared), len(have))
			return
		}
		for i, d := range declared {
			if d.Name != have[i].name || d.Unit != have[i].unit {
				t.Errorf("%s[%d]: declared %s %s, reported %s %s", kind, i, d.Name, d.Unit, have[i].name, have[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("workloads: declared %v, implemented %v", names, workloads)
	}
}

func TestSelectMetrics(t *testing.T) {
	specs := []metricSpec{{"a", "us"}, {"b", "count"}}
	got, err := selectMetrics([]figure{{name: "b", unit: "count", value: 3}}, specs, true)
	if err != nil || len(got) != 2 || got[0].value != 0 || got[1].value != 3 {
		t.Errorf("idle layer not reported as 0: %+v, %v", got, err)
	}
	if _, err := selectMetrics([]figure{{name: "b", unit: "count"}}, specs, false); err == nil {
		t.Error("a missing end-to-end metric must be an error")
	}
	if _, err := selectMetrics([]figure{{name: "a", unit: "ms"}, {name: "b", unit: "count"}}, specs, false); err == nil {
		t.Error("a unit mismatch must be an error")
	}
}

func TestQuietIntervals(t *testing.T) {
	for _, tc := range []struct {
		steal []float64
		want  []int
	}{
		{nil, nil},
		{[]float64{0, 0, 0, 0, 0}, []int{0, 1, 2, 3, 4}},                 // no steal: every interval
		{[]float64{0.01, 0.03, 0.02, 0.05, 0.2, 0.3}, []int{0, 1, 2, 3}}, // the minQuiet quietest
		{[]float64{0.01, 0.03, 0.02, 0.04, 0.01, 0.3}, []int{0, 1, 2, 3, 4}},
		{[]float64{0.3, 0.4, 0.5, 0.35, 0.45, 0.6, 0.3}, []int{0, 1, 3, 6}}, // all stolen: the quietest few
		{[]float64{0.5, 0.1}, []int{0, 1}},                                  // fewer than minQuiet: all
	} {
		got := quiet(tc.steal)
		if len(got) != len(tc.want) {
			t.Errorf("quiet(%v) = %v, want %v", tc.steal, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("quiet(%v) = %v, want %v", tc.steal, got, tc.want)
				break
			}
		}
	}
	// Of 80 slices, a run whose episode leaves ten quiet ones uses those ten.
	steal := make([]float64, 80)
	for i := range steal {
		steal[i] = 0.3
		if i%8 == 0 {
			steal[i] = 0.02
		}
	}
	if got := quiet(steal); len(got) != 10 {
		t.Errorf("quiet over an episode: %d intervals, want the 10 quiet ones", len(got))
	}
}

func TestSummarizeSkipsStolenIntervals(t *testing.T) {
	fast, slow := &dist{}, &dist{}
	for i := 1; i <= 100; i++ {
		fast.add(float64(i))
		slow.add(float64(10 * i))
	}
	ivs := []interval{{steal: 0.4, value: 10, lat: slow}, {steal: 0.45, value: 11, lat: slow}}
	for i := 0; i < 4; i++ {
		ivs = append(ivs, interval{steal: 0.01 * float64(i), value: 100 + float64(i), lat: fast})
	}
	s := summarize(ivs)
	if s.intervals != 4 || s.lat.n() != 400 {
		t.Fatalf("used %d intervals, %d samples; want 4 and 400", s.intervals, s.lat.n())
	}
	if s.value != 101 || s.p50 != 50 || s.p99 != 99 {
		t.Errorf("rate %v p50 %v p99 %v: a stolen interval leaked in", s.value, s.p50, s.p99)
	}
}
