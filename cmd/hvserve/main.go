// Command hvserve is the online HTML violation checker: POST a
// document to /v1/check and get its violations, rule hits, and
// mitigation signals back as JSON, or POST it to /v1/fix to run the
// validated repair engine (internal/autofix) and get back the verified
// repaired document — or the original bytes with an explanation when
// the repair cannot be verified. The service is hardened for
// overload (see internal/serve): per-tenant rate limits, a bounded
// worker pool with explicit load shedding, request size/depth/time
// caps, slowloris defense, and a graceful SIGTERM drain.
//
// With -archive-dir or -archive-synthetic it also exposes
// GET /v1/archive-check?domain=...&crawl=...&limit=..., checking
// captures straight out of a Common Crawl-shaped archive behind a
// circuit breaker.
//
// Usage:
//
//	hvserve [-addr :8811] [-stream] [-rules FB1,DE3_1]
//	        [-max-body-mb 2] [-max-depth 512] [-timeout 2s]
//	        [-workers 0] [-queue 0] [-tenant-rate 100]
//	        [-archive-dir DIR | -archive-synthetic] [-drain 30s]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/hvscan/hvscan/internal/autofix"
	"github.com/hvscan/hvscan/internal/commoncrawl"
	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/corpus"
	"github.com/hvscan/hvscan/internal/resilience"
	"github.com/hvscan/hvscan/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8811", "listen address")
		stream     = flag.Bool("stream", false, "streaming rules only (constant-memory; no tree construction)")
		rules      = flag.String("rules", "", "comma-separated rule IDs (empty = full catalogue)")
		maxBodyMB  = flag.Int64("max-body-mb", 2, "request body cap in MiB")
		maxDepth   = flag.Int("max-depth", 512, "open-element depth cap for tree parses")
		timeout    = flag.Duration("timeout", 2*time.Second, "per-request check deadline")
		progress   = flag.Duration("body-progress", 5*time.Second, "per-chunk body read progress deadline (slowloris cutoff)")
		workers    = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 0, "admission queue depth (0 = 2x workers)")
		queueWait  = flag.Duration("queue-wait", 250*time.Millisecond, "max queued wait before shedding")
		tenantRate = flag.Float64("tenant-rate", 100, "per-tenant requests/second (negative = unlimited)")
		drain      = flag.Duration("drain", 30*time.Second, "graceful drain budget on SIGTERM")

		archiveDir = flag.String("archive-dir", "", "enable /v1/archive-check over an hvgen archive directory")
		archiveSyn = flag.Bool("archive-synthetic", false, "enable /v1/archive-check over the synthetic archive")
		domains    = flag.Int("domains", 2400, "synthetic archive: domain universe size")
		maxPages   = flag.Int("pages", 20, "synthetic archive: max pages per domain")
		seed       = flag.Int64("seed", 22, "synthetic archive seed")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var checker *core.Checker
	switch {
	case *stream:
		checker = core.NewStreamingChecker()
	case *rules != "":
		var rs []core.Rule
		for _, id := range strings.Split(*rules, ",") {
			r, ok := core.RuleByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "hvserve: unknown rule %q (hvcheck -list prints the catalogue)\n", id)
				os.Exit(2)
			}
			rs = append(rs, r)
		}
		checker = core.NewCheckerWith(rs...)
	}
	cfg := serve.Config{
		Checker:             checker,
		MaxBodyBytes:        *maxBodyMB << 20,
		MaxTreeDepth:        *maxDepth,
		RequestTimeout:      *timeout,
		BodyProgressTimeout: *progress,
		Admission: resilience.AdmissionConfig{
			Workers:   *workers,
			Queue:     *queue,
			QueueWait: *queueWait,
		},
		TenantRate: *tenantRate,
	}
	if *archiveDir != "" {
		disk, err := commoncrawl.OpenDisk(*archiveDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hvserve:", err)
			os.Exit(1)
		}
		defer disk.Close()
		cfg.Archive = disk
	} else if *archiveSyn {
		g := corpus.New(corpus.Config{Seed: *seed, Domains: *domains, MaxPages: *maxPages})
		cfg.Archive = commoncrawl.NewSynthetic(g)
	}

	srv := serve.New(cfg)
	// The repair engine's per-rule applied/verified/rejected counters
	// belong on the same /metrics page as the serve_fix_* series.
	autofix.Instrument(srv.Registry())
	if checker == nil {
		log.Printf("checking with the full catalogue (tree mode)")
	} else if checker.NeedsTree() {
		log.Printf("checking %d rules (tree mode)", len(checker.Rules()))
	} else {
		log.Printf("checking %d streaming rules (constant-memory mode)", len(checker.Rules()))
	}
	log.Printf("listening on %s (drain budget %s)", *addr, *drain)
	err := serve.Run(ctx, serve.NewHTTPServer(*addr, srv), *drain, srv.BeginDrain)
	if !serve.IsExpectedClose(err) {
		log.Fatal(err)
	}
	log.Printf("drained cleanly")
}
