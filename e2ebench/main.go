package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workers  int    // connections or crawl workers: one per CPU
	tmp      string // scratch directory inside the checkout
}

// figure is one named measurement with its sample count.
type figure struct {
	name, unit string
	value      float64
	n          int
	note       string
}

// inputDescriptor describes what a workload fed the program.
type inputDescriptor struct {
	Workload string  `json:"workload"`
	Pages    int     `json:"pages"`
	BytesP50 float64 `json:"bytes_per_page_p50"`
	BytesP99 float64 `json:"bytes_per_page_p99"`
}

// budgetRow is one line of the layer budget table, in µs per operation.
// Rows marked part break a layer above them down and are not summed.
type budgetRow struct {
	layer string
	us    float64
	part  bool
}

// report is what a workload run hands back for printing.
type report struct {
	setup  []interval // one per set-up
	e2e    []figure
	layers []figure
	budget []budgetRow
	ops    tally
	input  inputDescriptor
	// stealShare is the share of CPU time the hypervisor took from this
	// machine during the run: host noise the figures cannot exclude.
	stealShare float64
}

// A run sets its workload up at least minSetups times and keeps going
// until setups have taken setupBudget, so that a cheap set-up is
// sampled often; setup_s is the median.
const (
	minSetups   = 3
	setupBudget = 2 * time.Second
)

// timeSetup times repeated set-ups. teardown undoes the previous one
// between them, outside the timed span; the last set-up stays for the
// run. It returns one interval per set-up, valued in seconds.
func timeSetup(setup, teardown func() error) ([]interval, error) {
	var ivs []interval
	start := time.Now()
	for len(ivs) < minSetups || time.Since(start) < setupBudget {
		if len(ivs) > 0 {
			if err := teardown(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
		m := markSteal()
		if err := setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		ivs = append(ivs, interval{steal: m.share(), value: time.Since(m.t).Seconds()})
	}
	return ivs, nil
}

func budgetTotals(endToEnd float64, how string, layers ...float64) []budgetRow {
	sum := 0.0
	for _, l := range layers {
		sum += l
	}
	return []budgetRow{
		{layer: "sum of layers", us: sum},
		{layer: "end to end (" + how + ")", us: endToEnd},
		{layer: "unattributed", us: selfTime(endToEnd, sum)},
	}
}

var workloads = []string{"crawl-fix", "serve"}

func main() {
	var o options
	var trace int
	var seconds float64
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloads, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&seconds, "seconds", 10, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	o.workers = runtime.NumCPU()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(o options, w io.Writer) error {
	if o.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	large, err := loadLarge(".")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	o.tmp, err = os.MkdirTemp(".bench_build", "e2ebench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(o.tmp)

	ctx := context.Background()
	steal := markSteal()
	var r *report
	switch o.workload {
	case "crawl-fix":
		r, err = runCrawl(ctx, o, large)
	case "serve":
		r, err = runServe(o, large)
	default:
		return fmt.Errorf("unknown --workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	r.input.Workload = o.workload
	r.stealShare = steal.share()
	return emit(w, o, r)
}

// emit prints the fingerprint, the input descriptor, the tables and, as
// the last line, the result object.
func emit(w io.Writer, o options, r *report) error {
	stamp, _ := json.Marshal(hostFingerprint(o.seed))
	input, _ := json.Marshal(r.input)
	fmt.Fprintf(w, "fingerprint %s\ninput %s\nconditions {\"steal_share\":%.4f}\n", stamp, input, r.stealShare)

	su := summarize(r.setup)
	setup := figure{name: "setup_s", unit: "s", value: su.value, n: len(r.setup), note: fmt.Sprintf("median over quiet %d of %d set-ups", su.intervals, len(r.setup))}
	failed := figure{name: "failed_share", unit: "ratio", value: r.ops.failedShare(), n: r.ops.attempted(),
		note: fmt.Sprintf("refused %d, errored %d, wrong %d", r.ops.refused, r.ops.errored, r.ops.wrong)}
	rss := figure{name: "peak_rss_mb", unit: "MiB", value: peakRSSMiB(), n: 1, note: "VmHWM of this process"}
	e2e := append([]figure{setup}, r.e2e...)
	e2e = append(e2e, failed, rss)

	var out []figure
	var err error
	if o.trace {
		printFigures(w, o.workload+" per-layer (traced run)", r.layers)
		printBudget(w, o.workload, r.budget)
		out, err = selectMetrics(r.layers, perLayer, true)
	} else {
		printFigures(w, o.workload+" end to end", e2e)
		out, err = selectMetrics(e2e, endToEnd, false)
	}
	if err != nil {
		return err
	}
	metrics := make(map[string]any, len(out))
	for _, f := range out {
		v := f.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[f.name] = map[string]any{"value": v, "unit": f.unit}
	}
	res, err := json.Marshal(map[string]any{
		"correct":   r.ops.failed() == 0,
		"attempted": r.ops.attempted(),
		"failed":    r.ops.failed(),
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", res)
	return err
}

func printFigures(w io.Writer, title string, figs []figure) {
	fmt.Fprintf(w, "== %s\n", title)
	for _, f := range figs {
		fmt.Fprintf(w, "%-40s %14.6g %-6s n=%-7d %s\n", f.name, f.value, f.unit, f.n, f.note)
	}
}

func printBudget(w io.Writer, workload string, rows []budgetRow) {
	if len(rows) == 0 {
		return
	}
	endToEnd := 0.0
	for _, r := range rows {
		if strings.HasPrefix(r.layer, "end to end") {
			endToEnd = r.us
		}
	}
	fmt.Fprintf(w, "== %s layer budget (us per operation, share of end to end)\n", workload)
	for _, r := range rows {
		fmt.Fprintf(w, "%-58s %10.2f %7.1f%%\n", r.layer, r.us, 100*r.us/endToEnd)
	}
}

// metricSpec is a metric as BENCHMARK.json declares it.
type metricSpec struct{ name, unit string }

// selectMetrics returns one figure per spec, in spec order. A missing
// per-layer figure is a layer idle in the workload and reports 0
// (idleZero); a missing end-to-end figure or a unit that disagrees with
// the spec is an error.
func selectMetrics(figs []figure, specs []metricSpec, idleZero bool) ([]figure, error) {
	have := make(map[string]figure, len(figs))
	for _, f := range figs {
		have[f.name] = f
	}
	out := make([]figure, 0, len(specs))
	for _, m := range specs {
		f, ok := have[m.name]
		switch {
		case !ok && idleZero:
			f = figure{name: m.name, unit: m.unit}
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		case f.unit != m.unit:
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", m.name, f.unit, m.unit)
		}
		out = append(out, f)
	}
	return out, nil
}

// endToEnd lists the end-to-end metrics every untraced run reports, as
// declared in BENCHMARK.json. failed_share is printed but not listed:
// it is 0 on a correct run, and failed/attempted carry it.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"pages_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the per-layer metrics every traced run reports, in
// the order and with the units of BENCHMARK.json.
var perLayer = []metricSpec{
	{"commoncrawl.query_us", "us"},
	{"commoncrawl.read_us", "us"},
	{"commoncrawl.read_bytes_per_page", "count"},
	{"warc.decode_us_per_page", "us"},
	{"warc.decode_alloc_bytes_per_page", "B"},
	{"htmlparse.preprocess_us_per_page", "us"},
	{"htmlparse.tokenize_us_per_page", "us"},
	{"htmlparse.tree_us_per_page", "us"},
	{"htmlparse.parse_alloc_bytes_per_page", "B"},
	{"htmlparse.parse_us_large", "us"},
	{"core.check_us_per_page", "us"},
	{"core.rules_us_per_page", "us"},
	{"core.check_alloc_bytes_per_page", "B"},
	{"core.check_us_large", "us"},
	{"autofix.repair_us_per_page", "us"},
	{"autofix.repair_alloc_bytes_per_page", "B"},
	{"autofix.pages_fixed", "count"},
	{"autofix.pages_partial", "count"},
	{"autofix.pages_unfixable", "count"},
	{"autofix.pages_clean", "count"},
	{"crawler.self_us_per_page", "us"},
	{"crawler.analyzed_ratio", "ratio"},
	{"store.encode_us_per_domain", "us"},
	{"store.bytes_per_domain", "count"},
	{"serve.handler_us_p50", "us"},
	{"serve.handler_us_p99", "us"},
	{"serve.self_us", "us"},
	{"serve.transport_us", "us"},
	{"serve.shed", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"budget.unattributed_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"probe.r1000.latency_p50_ms", "ms"},
	{"probe.r1000.latency_p99_ms", "ms"},
	{"probe.r1000.lag_p99_ms", "ms"},
	{"probe.r1000.achieved_per_s", "1/s"},
	{"probe.r2000.latency_p50_ms", "ms"},
	{"probe.r2000.latency_p99_ms", "ms"},
	{"probe.r2000.lag_p99_ms", "ms"},
	{"probe.r2000.achieved_per_s", "1/s"},
}
