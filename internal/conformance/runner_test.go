package conformance

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hvscan/hvscan/internal/htmlparse"
)

func writeCorpusFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const passingDat = `#data
<!DOCTYPE html><p>x</p>
#errors
#document
| <!DOCTYPE html>
| <html>
|   <head>
|   <body>
|     <p>
|       "x"
`

func TestRunnerTreeOutcomes(t *testing.T) {
	dir := t.TempDir()
	// One passing case, one with a wrong golden tree, one with wrong
	// errors, one skiplisted.
	writeCorpusFile(t, dir, "a.dat", passingDat+`
#data
<!DOCTYPE html><p>y</p>
#errors
#document
| <!DOCTYPE html>
| <html>
|   <head>
|   <body>
|     <div>
|       "y"

#data
<p>z</p>
#errors
#document
| <html>
|   <head>
|   <body>
|     <p>
|       "z"

#data
<!DOCTYPE html><table><div>x</div></table>
#errors
#document
`)
	// The fourth case's #data marker sits at line 33 of a.dat.
	skips, err := ParseSkiplist(writeSkiplist(t, "a.dat:33 -- exercising the skip path\n"))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(skips)
	if _, err := r.RunTreeDir(dir); err != nil {
		t.Fatal(err)
	}
	rep := r.Report()
	if rep.Total() != 4 || rep.Count(Pass) != 1 || rep.Count(Fail) != 2 || rep.Count(Skip) != 1 {
		t.Fatalf("outcomes: total=%d pass=%d fail=%d skip=%d",
			rep.Total(), rep.Count(Pass), rep.Count(Fail), rep.Count(Skip))
	}
	fails := rep.Failures()
	if !strings.Contains(fails[0].Detail, "tree diverges") {
		t.Errorf("first failure should be a tree diff:\n%s", fails[0].Detail)
	}
	if !strings.Contains(fails[1].Detail, "error codes diverge") {
		t.Errorf("second failure should be an error diff:\n%s", fails[1].Detail)
	}
	if len(rep.StaleSkips) != 0 {
		t.Errorf("stale skips: %v", rep.StaleSkips)
	}
}

func TestRunnerTreeUpdateRewritesGoldens(t *testing.T) {
	dir := t.TempDir()
	path := writeCorpusFile(t, dir, "a.dat", `#data
<p>z</p>
#errors
#document
`)
	r := NewRunner(nil)
	r.Update = true
	updated, err := r.RunTreeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	content, ok := updated[path]
	if !ok {
		t.Fatal("update did not rewrite the file")
	}
	if !strings.Contains(content, "unexpected-token-in-initial-insertion-mode") {
		t.Errorf("errors not filled in:\n%s", content)
	}
	if !strings.Contains(content, `|       "z"`) {
		t.Errorf("document not filled in:\n%s", content)
	}
	// The rewritten goldens must pass a plain run.
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(nil)
	if _, err := r2.RunTreeDir(dir); err != nil {
		t.Fatal(err)
	}
	if rep := r2.Report(); rep.Count(Pass) != rep.Total() {
		t.Errorf("regenerated goldens do not pass: %+v", rep.Results)
	}
}

func TestRunnerTokenOutcomes(t *testing.T) {
	dir := t.TempDir()
	writeCorpusFile(t, dir, "a.test", `{"tests": [
		{"description": "pass", "input": "<p>", "output": [["StartTag", "p", {}]]},
		{"description": "fail tokens", "input": "<p>", "output": [["StartTag", "q", {}]]},
		{"description": "fail errors", "input": "<p>", "output": [["StartTag", "p", {}]],
		 "errors": [{"code": "eof-in-tag"}]},
		{"description": "skipped", "input": "x", "output": []}
	]}`)
	skips, err := ParseSkiplist(writeSkiplist(t, "a.test:skipped -- exercising the skip path\n"))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(skips)
	if _, err := r.RunTokenDir(dir); err != nil {
		t.Fatal(err)
	}
	rep := r.Report()
	if rep.Total() != 4 || rep.Count(Pass) != 1 || rep.Count(Fail) != 2 || rep.Count(Skip) != 1 {
		t.Fatalf("outcomes: total=%d pass=%d fail=%d skip=%d",
			rep.Total(), rep.Count(Pass), rep.Count(Fail), rep.Count(Skip))
	}
}

// TestRunnerFindingsGolden pins the checker reports of a directory:
// -update writes them, a plain run passes on them, and a changed
// finding, a missing entry or a stale entry each fail.
func TestRunnerFindingsGolden(t *testing.T) {
	dir := t.TempDir()
	writeCorpusFile(t, dir, "a.dat", `#data
<p id=a id=b>x
#errors
#document
`)
	run := func(update bool) *Report {
		t.Helper()
		r := NewRunner(nil)
		r.Update = update
		updated, err := r.RunTreeDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for path, content := range updated {
			writeCorpusFile(t, filepath.Dir(path), filepath.Base(path), content)
		}
		return r.Report()
	}
	run(true)
	golden := filepath.Join(dir, FindingsFile)
	pinned, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(pinned), `"DM3 1:14@13 id"`) {
		t.Fatalf("golden lacks the DM3 finding:\n%s", pinned)
	}
	if rep := run(false); rep.Count(Pass) != 1 || rep.Total() != 1 {
		t.Fatalf("pinned corpus does not pass: %+v", rep.Results)
	}
	for name, content := range map[string]string{
		"changed finding": strings.Replace(string(pinned), "DM3 1:14@13", "DM3 1:15@14", 1),
		"missing entry":   "{}",
		"stale entry":     strings.Replace(string(pinned), "{", `{"gone.dat:1": {"findings": [], "rule_hits": {}, "signals": []},`, 1),
	} {
		if err := os.WriteFile(golden, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if rep := run(false); rep.Count(Fail) != 1 {
			t.Errorf("%s: want one failure, got %+v", name, rep.Results)
		}
	}
}

func TestRunnerCoverageRecording(t *testing.T) {
	dir := t.TempDir()
	writeCorpusFile(t, dir, "a.dat", `#data
<!DOCTYPE html><body><p id="a" id="a">x</p></body>
#errors
duplicate-attribute
#document
| <!DOCTYPE html>
| <html>
|   <head>
|   <body>
|     <p>
|       id="a"
|       "x"
`)
	r := NewRunner(nil)
	if _, err := r.RunTreeDir(dir); err != nil {
		t.Fatal(err)
	}
	rep := r.Report()
	if rep.Count(Pass) != 1 {
		t.Fatalf("case failed: %+v", rep.Results)
	}
	lines, _ := rep.Coverage.Report()
	for _, l := range lines {
		if l.Code == htmlparse.ErrDuplicateAttribute && l.Hits == 0 {
			t.Error("duplicate-attribute not counted")
		}
	}
}

func TestCoverageGate(t *testing.T) {
	c := NewCoverage()
	_, missing := c.Report()
	if len(missing) == 0 {
		t.Fatal("empty coverage should miss every emitted code")
	}
	c.RecordNames([]string{"duplicate-attribute"})
	_, missing2 := c.Report()
	if len(missing2) != len(missing)-1 {
		t.Errorf("recording one code should shrink missing by one: %d -> %d", len(missing), len(missing2))
	}
	md := c.Markdown()
	if !strings.Contains(md, "justified-unreachable") {
		t.Error("markdown lacks the unreachable row")
	}
	if !strings.Contains(md, "**MISSING**") {
		t.Error("markdown lacks MISSING markers")
	}
}

// TestCheckedInCorpus runs the real checked-in corpus exactly as `make
// conform` does — the conformance suite as a plain go test, so tier-1
// CI cannot pass with a red corpus.
func TestCheckedInCorpus(t *testing.T) {
	skips, err := ParseSkiplist("testdata/skiplist.txt")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(skips)
	for _, dir := range []string{"testdata/tree-construction", "../htmlparse/testdata/tree-construction"} {
		if _, err := r.RunTreeDir(dir); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.RunTokenDir("testdata/tokenizer"); err != nil {
		t.Fatal(err)
	}
	// Every corpus directory pins its checker reports; without the file
	// the runner would check findings nowhere.
	for _, dir := range []string{"testdata/tree-construction", "../htmlparse/testdata/tree-construction", "testdata/tokenizer"} {
		if _, err := os.Stat(filepath.Join(dir, FindingsFile)); err != nil {
			t.Errorf("corpus directory %s pins no findings: %v", dir, err)
		}
	}
	rep := r.Report()
	for _, c := range rep.Failures() {
		t.Errorf("FAIL %s\n%s", c.ID, c.Detail)
	}
	if rep.Total() < 300 {
		t.Errorf("corpus shrank to %d cases, want >= 300", rep.Total())
	}
	if _, missing := rep.Coverage.Report(); len(missing) > 0 {
		t.Errorf("emitted codes with no provoking fixture: %v", missing)
	}
	if len(rep.StaleSkips) > 0 {
		t.Errorf("stale skiplist entries: %v", rep.StaleSkips)
	}
}
