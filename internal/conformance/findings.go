package conformance

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"

	"github.com/hvscan/hvscan/internal/core"
)

// FindingsFile is the per-directory golden that pins the full-catalogue
// checker report of every case in a corpus directory: each finding's
// rule, position and evidence in report order, the per-rule hit counts,
// and the page signals. The tree and error-code goldens pin the parser;
// this one pins the rules on top of it, so a refactor of the rule engine
// has to reproduce every report byte for byte. A directory without the
// file has no pinned findings; -update writes it.
const FindingsFile = "findings.json"

// pinnedReport is one case's entry in FindingsFile.
type pinnedReport struct {
	// Error is the checker's rejection (non-UTF-8 input); empty otherwise.
	Error string `json:"error,omitempty"`
	// Findings renders each finding as "RULE line:col@offset evidence",
	// without the evidence when it is empty.
	Findings []string       `json:"findings"`
	RuleHits map[string]int `json:"rule_hits"`
	// Signals lists the names of the set core.Signals fields.
	Signals []string `json:"signals"`
}

func pinReport(rep *core.Report, err error) pinnedReport {
	if err != nil {
		return pinnedReport{Error: err.Error(), Findings: []string{}, RuleHits: map[string]int{}, Signals: []string{}}
	}
	p := pinnedReport{Findings: []string{}, RuleHits: rep.RuleHits, Signals: []string{}}
	for _, f := range rep.Findings {
		s := fmt.Sprintf("%s %s@%d", f.RuleID, f.Pos, f.Pos.Offset)
		if f.Evidence != "" {
			s += " " + f.Evidence
		}
		p.Findings = append(p.Findings, s)
	}
	v := reflect.ValueOf(rep.Signals)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Bool() {
			p.Signals = append(p.Signals, v.Type().Field(i).Name)
		}
	}
	return p
}

// findingsGolden is the loaded FindingsFile of one directory plus the
// bookkeeping for the verdicts: which entries the run used, and the
// observed reports that -update writes back.
type findingsGolden struct {
	path string
	// want is nil when the directory has no FindingsFile.
	want map[string]json.RawMessage
	used map[string]bool
	got  map[string]pinnedReport
}

func loadFindings(dir string) (*findingsGolden, error) {
	g := &findingsGolden{
		path: filepath.Join(dir, FindingsFile),
		used: map[string]bool{},
		got:  map[string]pinnedReport{},
	}
	raw, err := os.ReadFile(g.path)
	if errors.Is(err, fs.ErrNotExist) {
		return g, nil
	}
	if err != nil {
		return nil, err
	}
	g.want = map[string]json.RawMessage{}
	if err := json.Unmarshal(raw, &g.want); err != nil {
		return nil, fmt.Errorf("%s: %w", g.path, err)
	}
	return g, nil
}

// verify compares one case's report against its pinned entry and
// returns a problem description, or "" when it matches (or the
// directory pins nothing).
func (g *findingsGolden) verify(id string, got pinnedReport) string {
	g.got[id] = got
	if g.want == nil {
		return ""
	}
	g.used[id] = true
	want, ok := g.want[id]
	if !ok {
		return "no pinned findings for this case in " + g.path + " (run hvconform -update)"
	}
	gotJSON, err := encodeJSON(got, "")
	if err != nil {
		return err.Error()
	}
	var wantBuf bytes.Buffer
	if err := json.Compact(&wantBuf, want); err != nil {
		return fmt.Sprintf("pinned findings unreadable: %v", err)
	}
	if !bytes.Equal(wantBuf.Bytes(), bytes.TrimSpace(gotJSON)) {
		return fmt.Sprintf("findings diverge:\n--- want ---\n%s\n--- got ---\n%s", wantBuf.Bytes(), gotJSON)
	}
	return ""
}

// stale returns the sorted pinned case IDs the run never reached.
func (g *findingsGolden) stale() []string {
	var out []string
	for id := range g.want {
		if !g.used[id] {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// render returns the FindingsFile content for the observed reports.
func (g *findingsGolden) render() (string, error) {
	b, err := encodeJSON(g.got, "  ")
	return string(b), err
}

// encodeJSON marshals v without HTML escaping, so the evidence strings
// in the golden read as the markup they quote.
func encodeJSON(v any, indent string) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", indent)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
