// Command e2ebench is the repository's end-to-end benchmark. It drives
// hvscan only through its public entry points and times every layer
// from outside:
//
//	bash e2ebench/run.sh --workload crawl-fix|serve --seed N --seconds S --trace 0|1
//
// run.sh builds this package (a module of its own, so the repository's
// `go test ./...` does not include it) and runs it from the repository
// root. The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the lines before it
// stamp the host fingerprint (CPU model, nproc, GOMAXPROCS, Go version,
// kernel, git SHA, seed), describe the input (page count, bytes per
// page p50/p99) and print the metric tables with sample counts.
//
// # Workloads
//
// All inputs come from --seed. Load comes from this one process, with
// one worker goroutine or connection per CPU.
//
//   - crawl-fix: the `hvcrawl -fix` batch path, crawler.New(...) with
//     Config.Fix and RunSnapshot over the oldest and newest snapshots
//     (CC-MAIN-2015-14, CC-MAIN-2022-05) of a 600-domain universe at up
//     to ten pages per domain, read from an on-disk archive in hvgen's
//     layout, with the full rule catalogue, then Store.WriteTo. Archive
//     read, WARC decode, parse+check and the store do the work of a
//     plain crawl; the repair engine, which re-parses and re-checks
//     every page, adds about as much again. Serve does nothing.
//   - serve: an in-process hvserve (serve.New with default admission and
//     no tenant limit, serve.NewHTTPServer on loopback) under a closed
//     loop of one connection per CPU posting /v1/check. Fifteen of every
//     sixteen bodies are seeded corpus pages from serve.Bodies; one is a
//     41–48 KB fixture from internal/htmlparse/testdata/bench. Small
//     bodies make HTTP, admission and JSON cost dominant; the large ones
//     put tree construction into the latency tail. Archive, WARC and
//     autofix do nothing.
//
// Corpus pages average about 1.5 KB (the input line prints p50 and
// p99). The 48 KB "typical" fixture that cmd/hvbench labels the median
// case is thirty times larger than a median crawled page; here it is
// only serve's large-body tail.
//
// The serve load is a closed loop because an open loop at a fixed rate
// on a 2-core host is dominated by the generator: its sleeps overshoot
// by milliseconds and its p99 swung several-fold between runs. The
// traced run adds an open-loop probe at two fixed rates as a
// diagnostic only. It times each request from its due time and reports
// how late the generator ran. `hvserve -loadgen` is not reused for it:
// it times requests from when they were sent, so a stall does not count
// against the requests queued behind it, and it drops requests cut off
// at the end of the run.
//
// # Metrics
//
// End to end (--trace 0), in every workload:
//
//   - setup_s: the median set-up time, over at least three set-ups
//     repeated for at least two seconds. crawl-fix: write the archive
//     and open it with commoncrawl.OpenDisk. serve: render the bodies
//     and their reference reports and start the server.
//   - pages_per_s: crawl-fix: analyzed pages over the wall time of the
//     RunSnapshot calls plus Store.WriteTo, per pass. serve: correct 200
//     responses per second (requests_per_s; each request checks one
//     page), per half-second slice.
//   - latency_p50_ms, latency_p99_ms: serve: client-observed request
//     latency. crawl-fix: domain latency, from the domain's index query
//     to its result reaching the store, over domains with captures. The
//     table also prints the highest percentile with at least ten
//     samples beyond it.
//   - peak_rss_mb: the high-water resident set of this process.
//
// The host is a VM whose hypervisor at times steals CPU time, in
// episodes of tens of seconds to minutes at 20-60%, which slows every
// figure above by more than its bound. The figures therefore come only
// from a run's quiet intervals (set-ups, passes or slices): every
// interval within three points of steal of the quietest, and at least
// the quietest eighth, no fewer than four. Rates and latency
// percentiles are the medians of the quiet intervals' own. Runs last
// run_seconds (BENCHMARK.json), long enough that a short episode does
// not cover all of one; a long one still moves the figures. The
// conditions line reports the steal over the whole run.
//
// failed_share, operations that were refused, errored or wrong over
// those attempted, is printed in the table and carried by the result's
// failed and attempted counts. An operation is a (snapshot, domain)
// result for crawl-fix and a request for serve. The oracle never trusts
// the checker: every stored domain must carry every rule the generator
// planted on its pages and exactly the number of analyzable pages the
// generator made; its repair outcome counts must sum to its analyzed
// pages; every serve response must equal the reference check of its
// body and, for corpus bodies, include the planted rules.
//
// Per layer (--trace 1). Untraced and traced passes (crawl-fix) or slices
// (serve) alternate; spans come from wrappers on the program's seams
// (commoncrawl.Archive, crawler.Checker, the http.Handler around
// *serve.Server). Layers without a seam are measured by replaying the
// run's own inputs single-threaded through their public functions:
// warc.ReadRecordAt and warc.ParseHTTPResponse, htmlparse.Preprocess, a
// drained htmlparse.NewTokenizer, htmlparse.ParseReuse,
// core.Checker.Check and autofix.Repair. Per-page figures divide by
// analyzed pages. A layer that does no work in a workload reports 0.
// The budget table sets the layer times per operation against the end
// to end time per operation; budget.unattributed_share is what no
// layer covers and trace.overhead_share is how much slower traced
// passes ran than untraced ones.
package main
