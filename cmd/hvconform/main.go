// Command hvconform runs the HTML parser conformance corpus: html5lib
// .dat tree-construction and .test tokenizer fixtures, a skiplist with
// mandatory reasons, and the per-ErrorCode coverage gate against the
// internal/core spec-coverage ledger. Each corpus directory's
// findings.json pins the full-catalogue checker report of every case.
//
//	hvconform                  # run the default corpus, fail on any divergence
//	hvconform -update          # regenerate golden sections and findings.json from observed behavior
//	hvconform -summary -       # print the markdown coverage table (CI step summary)
//
// Exit status is non-zero when any case fails, an emitted ErrorCode has
// no provoking fixture, the skiplist has stale entries, or fewer than
// -min cases executed (a guard against silently losing corpus files).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/hvscan/hvscan/internal/conformance"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("hvconform", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		treeDirs = fs.String("tree", "internal/conformance/testdata/tree-construction,internal/htmlparse/testdata/tree-construction",
			"comma-separated directories of .dat tree-construction fixtures")
		tokDirs = fs.String("tok", "internal/conformance/testdata/tokenizer",
			"comma-separated directories of .test tokenizer fixtures")
		skiplist = fs.String("skiplist", "internal/conformance/testdata/skiplist.txt",
			"skiplist file (case-id -- reason per line)")
		update = fs.Bool("update", false,
			"rewrite fixture golden sections from observed parser behavior")
		verbose = fs.Bool("v", false, "print every case verdict")
		summary = fs.String("summary", "",
			"write a markdown summary to this path ('-' for stdout); append to $GITHUB_STEP_SUMMARY in CI")
		minCases = fs.Int("min", 300, "fail if fewer cases execute")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	skips, err := conformance.ParseSkiplist(*skiplist)
	if err != nil {
		fmt.Fprintln(stderr, "hvconform:", err)
		return 2
	}
	r := conformance.NewRunner(skips)
	r.Update = *update

	rewrites := map[string]string{}
	for _, dir := range splitDirs(*treeDirs) {
		up, err := r.RunTreeDir(dir)
		if err != nil {
			fmt.Fprintln(stderr, "hvconform:", err)
			return 2
		}
		mergeInto(rewrites, up)
	}
	for _, dir := range splitDirs(*tokDirs) {
		up, err := r.RunTokenDir(dir)
		if err != nil {
			fmt.Fprintln(stderr, "hvconform:", err)
			return 2
		}
		mergeInto(rewrites, up)
	}
	if *update {
		paths := make([]string, 0, len(rewrites))
		for p := range rewrites {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			if err := os.WriteFile(p, []byte(rewrites[p]), 0o644); err != nil {
				fmt.Fprintln(stderr, "hvconform:", err)
				return 2
			}
			fmt.Fprintln(stdout, "updated", p)
		}
	}

	rep := r.Report()
	if *verbose {
		for _, c := range rep.Results {
			fmt.Fprintf(stdout, "%-4s %s\n", c.Outcome, c.ID)
		}
	}
	for _, c := range rep.Failures() {
		fmt.Fprintf(stderr, "FAIL %s\n%s\n", c.ID, indent(c.Detail))
	}

	_, missing := rep.Coverage.Report()
	fmt.Fprintf(stdout, "conformance: %d cases, %d pass, %d fail, %d skip\n",
		rep.Total(), rep.Count(conformance.Pass), rep.Count(conformance.Fail), rep.Count(conformance.Skip))

	exit := 0
	if n := rep.Count(conformance.Fail); n > 0 {
		fmt.Fprintf(stderr, "hvconform: %d case(s) failed\n", n)
		exit = 1
	}
	if len(missing) > 0 {
		names := make([]string, len(missing))
		for i, c := range missing {
			names[i] = string(c)
		}
		fmt.Fprintf(stderr, "hvconform: coverage gate: %d emitted error code(s) have no provoking fixture:\n  %s\n",
			len(missing), strings.Join(names, "\n  "))
		exit = 1
	}
	if len(rep.StaleSkips) > 0 {
		fmt.Fprintf(stderr, "hvconform: %d stale skiplist entr(ies) matched no fixture (fixed? delete them):\n  %s\n",
			len(rep.StaleSkips), strings.Join(rep.StaleSkips, "\n  "))
		exit = 1
	}
	if rep.Total() < *minCases {
		fmt.Fprintf(stderr, "hvconform: only %d cases executed, want >= %d (corpus files missing?)\n",
			rep.Total(), *minCases)
		exit = 1
	}

	if *summary != "" {
		md := renderSummary(rep)
		if *summary == "-" {
			fmt.Fprint(stdout, md)
		} else {
			f, err := os.OpenFile(*summary, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
			if err != nil {
				fmt.Fprintln(stderr, "hvconform:", err)
				return 2
			}
			if _, err := f.WriteString(md); err != nil {
				f.Close()
				fmt.Fprintln(stderr, "hvconform:", err)
				return 2
			}
			f.Close()
		}
	}
	return exit
}

func renderSummary(rep *conformance.Report) string {
	var b strings.Builder
	total := rep.Total()
	pass := rep.Count(conformance.Pass)
	rate := 0.0
	if total > 0 {
		rate = 100 * float64(pass) / float64(total)
	}
	fmt.Fprintf(&b, "## Conformance\n\n%d cases: %d pass, %d fail, %d skip — %.1f%% pass rate\n\n",
		total, pass, rep.Count(conformance.Fail), rep.Count(conformance.Skip), rate)
	if fails := rep.Failures(); len(fails) > 0 {
		b.WriteString("### Failures\n\n")
		for _, c := range fails {
			fmt.Fprintf(&b, "- `%s`\n", c.ID)
		}
		b.WriteString("\n")
	}
	b.WriteString("### Per-ErrorCode coverage\n\n")
	b.WriteString(rep.Coverage.Markdown())
	return b.String()
}

func splitDirs(s string) []string {
	var out []string
	for _, d := range strings.Split(s, ",") {
		if d = strings.TrimSpace(d); d != "" {
			out = append(out, d)
		}
	}
	return out
}

func mergeInto(dst, src map[string]string) {
	for k, v := range src {
		dst[k] = v
	}
}

func indent(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = "    " + l
	}
	return strings.Join(lines, "\n")
}
