package crawler

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/hvscan/hvscan/internal/commoncrawl"
	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/store"
)

// chaosProfile is the acceptance-criteria fault mix: ~10% transient
// faults plus a sprinkle of permanent record damage and latency. The
// fixed seed makes every CI run identical.
func chaosProfile(seed int64) commoncrawl.ChaosConfig {
	return commoncrawl.ChaosConfig{
		Seed:          seed,
		TransientRate: 0.10,
		TruncateRate:  0.02,
		GarbageRate:   0.02,
		LatencyRate:   0.02,
		Latency:       200 * time.Microsecond,
	}
}

// TestChaosRunCompletesWithinBudget is the headline acceptance test: a
// seeded chaos run over the full fault mix completes with zero crashes,
// every domain accounted for exactly once, and failures within the
// error budget.
func TestChaosRunCompletesWithinBudget(t *testing.T) {
	arch := testArchive(120, 3)
	chaos := commoncrawl.NewChaos(arch, chaosProfile(7))
	domains := arch.Generator().Universe()
	crawl := arch.Crawls()[0]

	seen := make(map[string]int)
	st := store.New()
	p := New(chaos, core.NewChecker(), st, Config{
		Workers: 8, PagesPerDomain: 3, Retries: 2, RetryDelay: NoDelay,
		MaxDomainFailures: 30,
		Progress: func(_, domain string, done, total int) {
			seen[domain]++ // results loop is single-goroutine: no lock needed
		},
	})
	stats, err := p.RunSnapshot(context.Background(), crawl, domains)
	if err != nil {
		t.Fatalf("chaos run must absorb the fault mix: %v", err)
	}
	cs := chaos.Stats()
	if cs.Transient == 0 || cs.Truncated+cs.Garbage+cs.Permanent == 0 {
		t.Fatalf("chaos injected nothing: %+v", cs)
	}
	t.Logf("chaos: %+v; stats: failed=%d byClass=%v analyzed=%d",
		cs, stats.DomainsFailed, stats.FailedByClass, stats.Analyzed)

	// Every domain finished exactly once — no losses, no double counts.
	if len(seen) != len(domains) {
		t.Fatalf("progress saw %d domains, want %d", len(seen), len(domains))
	}
	for d, n := range seen {
		if n != 1 {
			t.Fatalf("domain %s finished %d times", d, n)
		}
	}
	if stats.DomainsFailed > 30 {
		t.Fatalf("failures exceed budget: %d > 30", stats.DomainsFailed)
	}
	if stats.DomainsFailed != len(stats.Failed) {
		t.Fatalf("DomainsFailed=%d but ledger has %d", stats.DomainsFailed, len(stats.Failed))
	}
	// Failed and stored domains are disjoint; together with the
	// zero-page domains they cover the universe.
	failed := make(map[string]bool, len(stats.Failed))
	for _, f := range stats.Failed {
		failed[f.Domain] = true
	}
	if st.Len() != stats.Analyzed {
		t.Fatalf("store holds %d, stats claim %d analyzed", st.Len(), stats.Analyzed)
	}
	st.ForEach(func(dr *store.DomainResult) {
		if failed[dr.Domain] {
			t.Fatalf("domain %s is both failed and stored", dr.Domain)
		}
	})
	// Transient faults were absorbed by retries, not turned into
	// failures: with ~10%% transient rate and 2 retries, the only
	// failures should be the injected permanent/corruption ones.
	if got := p.Metrics().Retries.Value(); got == 0 {
		t.Fatal("no retries despite transient faults")
	}
}

// snapshotFingerprint reduces a finished run to the bits that must be
// identical between an uninterrupted run and a crash-plus-resume run.
type snapshotFingerprint struct {
	Analyzed      int
	Found         int
	PagesFound    int
	PagesAnalyzed int
	DomainsFailed int
	FailedByClass map[string]int
	Failed        []store.FailedDomain // sorted by domain
	Stored        map[string]string    // domain -> violations digest
}

func fingerprint(stats SnapshotStats, st *store.Store) snapshotFingerprint {
	fp := snapshotFingerprint{
		Analyzed: stats.Analyzed, Found: stats.Found,
		PagesFound: stats.PagesFound, PagesAnalyzed: stats.PagesAnalyzed,
		DomainsFailed: stats.DomainsFailed,
		FailedByClass: stats.FailedByClass,
		Failed:        append([]store.FailedDomain(nil), stats.Failed...),
		Stored:        make(map[string]string),
	}
	sort.Slice(fp.Failed, func(i, j int) bool { return fp.Failed[i].Domain < fp.Failed[j].Domain })
	st.ForEach(func(dr *store.DomainResult) {
		keys := make([]string, 0, len(dr.Violations))
		for k := range dr.Violations {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		digest := ""
		for _, k := range keys {
			digest += fmt.Sprintf("%s:%d;", k, dr.Violations[k])
		}
		fp.Stored[dr.Domain] = digest
	})
	return fp
}

// TestChaosResumeEquivalence is the crash-safety acceptance test:
// interrupting a chaotic snapshot mid-run and restarting it with
// -resume semantics (same journal, fresh same-seed archive) must
// produce exactly the domain set — stored results, stats, and failure
// ledger — of the run that was never interrupted.
func TestChaosResumeEquivalence(t *testing.T) {
	const seed = 23
	arch := testArchive(100, 3)
	domains := arch.Generator().Universe()
	crawl := arch.Crawls()[0]
	dir := t.TempDir()

	runCfg := func(j *store.Journal, progress func(int)) Config {
		return Config{
			Workers: 4, PagesPerDomain: 3, Retries: 2, RetryDelay: NoDelay,
			MaxDomainFailures: 30, Journal: j,
			Progress: func(_, _ string, done, _ int) {
				if progress != nil {
					progress(done)
				}
			},
		}
	}

	// Reference: the run that never crashes.
	jA, warn, err := store.OpenJournal(filepath.Join(dir, "a.journal"))
	if err != nil || warn != "" {
		t.Fatalf("open journal A: %v %q", err, warn)
	}
	stA := store.New()
	pA := New(commoncrawl.NewChaos(arch, chaosProfile(seed)), core.NewChecker(), stA, runCfg(jA, nil))
	statsA, err := pA.RunSnapshot(context.Background(), crawl, domains)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	jA.Close()

	// Crash: cancel mid-run, roughly a third of the way through.
	jPath := filepath.Join(dir, "b.journal")
	jB, _, err := store.OpenJournal(jPath)
	if err != nil {
		t.Fatal(err)
	}
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	pB1 := New(commoncrawl.NewChaos(arch, chaosProfile(seed)), core.NewChecker(), store.New(),
		runCfg(jB, func(done int) {
			if done >= len(domains)/3 {
				cancelB()
			}
		}))
	_, err = pB1.RunSnapshot(ctxB, crawl, domains)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	jB.Close() // simulate the process dying (Record already hit the fd per line)
	completed := countJournal(t, jPath)
	if completed == 0 || completed >= len(domains) {
		t.Fatalf("interruption landed badly: %d/%d journaled", completed, len(domains))
	}

	// Resume: reopen the journal, fresh chaos archive with the same
	// seed (fault schedule is a pure function of the seed, so the
	// remaining domains see exactly the faults the reference run saw).
	jB2, warn, err := store.OpenJournal(jPath)
	if err != nil || warn != "" {
		t.Fatalf("reopen journal: %v %q", err, warn)
	}
	defer jB2.Close()
	stB := store.New()
	pB2 := New(commoncrawl.NewChaos(arch, chaosProfile(seed)), core.NewChecker(), stB, runCfg(jB2, nil))
	statsB, err := pB2.RunSnapshot(context.Background(), crawl, domains)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if got := int(pB2.Metrics().DomainsResumed.Value()); got != completed {
		t.Fatalf("resumed %d domains from journal, want %d", got, completed)
	}
	if got := int(pB2.Metrics().DomainsStarted.Value()); got != len(domains)-completed {
		t.Fatalf("re-measured %d domains, want %d", got, len(domains)-completed)
	}
	if statsB.DomainsResumed != completed {
		t.Fatalf("stats.DomainsResumed = %d, want %d", statsB.DomainsResumed, completed)
	}

	fpA, fpB := fingerprint(statsA, stA), fingerprint(statsB, stB)
	if !reflect.DeepEqual(fpA, fpB) {
		t.Fatalf("resumed run diverged from uninterrupted run:\nA: %+v\nB: %+v", fpA, fpB)
	}
}

// countJournal reads the journal file fresh and returns how many pairs
// it records.
func countJournal(t *testing.T, path string) int {
	t.Helper()
	j, warn, err := store.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if warn != "" {
		t.Fatalf("journal warn: %s", warn)
	}
	defer j.Close()
	return j.Len()
}

// TestResumeSkipsJournaledPairs pins the skip behavior in isolation: a
// journal pre-loaded with completed pairs keeps those domains from
// being re-measured at all.
func TestResumeSkipsJournaledPairs(t *testing.T) {
	arch := testArchive(12, 2)
	domains := arch.Generator().Universe()
	crawl := arch.Crawls()[0]
	j, _, err := store.OpenJournal(filepath.Join(t.TempDir(), "r.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	pre := domains[:5]
	for _, d := range pre {
		if err := j.Record(store.JournalEntry{Crawl: crawl, Domain: d,
			Result: &store.DomainResult{Crawl: crawl, Domain: d}}); err != nil {
			t.Fatal(err)
		}
	}
	st := store.New()
	p := New(arch, core.NewChecker(), st, Config{
		Workers: 2, PagesPerDomain: 2, Journal: j,
	})
	stats, err := p.RunSnapshot(context.Background(), crawl, domains)
	if err != nil {
		t.Fatal(err)
	}
	m := p.Metrics()
	if got := int(m.DomainsStarted.Value()); got != len(domains)-len(pre) {
		t.Fatalf("started %d, want %d (skipping %d journaled)", got, len(domains)-len(pre), len(pre))
	}
	if got := int(m.DomainsResumed.Value()); got != len(pre) {
		t.Fatalf("resumed %d, want %d", got, len(pre))
	}
	if stats.DomainsResumed != len(pre) {
		t.Fatalf("stats.DomainsResumed = %d, want %d", stats.DomainsResumed, len(pre))
	}
	// Every pair — replayed or measured — is now journaled: a second
	// run would be a pure replay.
	if j.Len() != len(domains) {
		t.Fatalf("journal holds %d pairs, want %d", j.Len(), len(domains))
	}
}
