package core

import (
	"context"
	"sort"
	"strings"

	"github.com/hvscan/hvscan/internal/htmlparse"
	"github.com/hvscan/hvscan/internal/obs"
)

// Report is the outcome of checking one page against the catalogue.
type Report struct {
	Findings []Finding
	// RuleHits maps rule ID to the number of findings for it.
	RuleHits map[string]int
	// Signals are the auxiliary per-page measurements of paper §4.2/§4.5
	// (mitigation overlap, math element usage).
	Signals Signals
}

// Signals captures page properties the paper's mitigation analysis (§4.5)
// and general statistics (§4.2) report alongside the violations.
type Signals struct {
	// NewlineInURL: some URL-valued attribute contains a raw newline
	// (West's 2017 measurement: 0.47% of page views).
	NewlineInURL bool
	// NewlineAndLtInURL: a URL contains both a newline and '<' — the
	// condition Chromium blocks since 2017.
	NewlineAndLtInURL bool
	// ScriptInAttribute: "<script" appears inside an attribute value — the
	// nonce-stealing mitigation trigger.
	ScriptInAttribute bool
	// NonceScriptAffected: a script element carries both a CSP nonce and
	// "<script" in an attribute, i.e. the mitigation would actually fire
	// (the paper found zero such elements).
	NonceScriptAffected bool
	// UsesMath: the page contains a math element (tracked because HF5_3
	// is so rare that the paper contrasts it with math adoption).
	UsesMath bool
	// UsesSVG: the page contains an svg element.
	UsesSVG bool
}

// Violated reports whether the given rule produced at least one finding.
func (r *Report) Violated(id string) bool { return r.RuleHits[id] > 0 }

// HasViolation reports whether any rule fired.
func (r *Report) HasViolation() bool { return len(r.Findings) > 0 }

// ViolatedIDs returns the sorted IDs of all rules that fired.
func (r *Report) ViolatedIDs() []string {
	ids := make([]string, 0, len(r.RuleHits))
	for id, n := range r.RuleHits {
		if n > 0 {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// OnlyAutoFixable reports whether every violation on the page belongs to
// the automatically repairable classes (paper §4.4: a site is "quickly
// fixable" if automation alone would clear it).
func (r *Report) OnlyAutoFixable() bool {
	if !r.HasViolation() {
		return false
	}
	for id := range r.RuleHits {
		rule, ok := RuleByID(id)
		if !ok || !rule.AutoFixable {
			return false
		}
	}
	return true
}

// Checker runs a set of rules over pages. The zero value is not usable;
// construct with NewChecker.
type Checker struct {
	rules []Rule
	// needTree records whether any configured rule has a Tree hook. When
	// false, checks run on the constant-memory token stream and never
	// build a DOM.
	needTree bool
	// tokenRules indexes the rules with a Token hook, the only ones
	// visited per tag.
	tokenRules []int
	// hits, when instrumented, holds one counter per rule (parallel to
	// rules); pages counts every document checked. Both stay nil on an
	// uninstrumented checker, keeping the hot path a nil check.
	hits  []*obs.Counter
	pages *obs.Counter
}

func newChecker(rs []Rule) *Checker {
	c := &Checker{rules: rs}
	for i, r := range rs {
		if r.Tree != nil {
			c.needTree = true
		}
		if r.Token != nil {
			c.tokenRules = append(c.tokenRules, i)
		}
	}
	return c
}

// NewChecker returns a checker over the full catalogue, or over the given
// subset if rule IDs are passed.
func NewChecker(ids ...string) *Checker {
	if len(ids) == 0 {
		return newChecker(Rules())
	}
	var rs []Rule
	for _, id := range ids {
		if r, ok := RuleByID(id); ok {
			rs = append(rs, r)
		}
	}
	return newChecker(rs)
}

// NewCheckerWith returns a checker over an explicit rule list —
// catalogue rules, custom rules, or a mix. The serving layer's fault
// tests use it to inject misbehaving rules; embedders use it to run
// house rules beside the catalogue.
func NewCheckerWith(rules ...Rule) *Checker {
	return newChecker(rules)
}

// NewStreamingChecker returns a checker restricted to the catalogue rules
// without a Tree hook, which it checks off the token stream alone (no
// tree construction). Used standalone for cheap scans and by the
// shared-parse ablation benchmark.
func NewStreamingChecker() *Checker {
	var rs []Rule
	for _, r := range Rules() {
		if r.Tree == nil {
			rs = append(rs, r)
		}
	}
	return newChecker(rs)
}

// Rules returns the checker's rule set.
func (c *Checker) Rules() []Rule { return c.rules }

// NeedsTree reports whether any configured rule has a Tree hook. A false
// return means checks run entirely on the constant-memory token stream.
func (c *Checker) NeedsTree() bool { return c.needTree }

// Instrument registers per-rule hit counters (core_rule_hits_total,
// labelled by rule ID) and a checked-pages counter on reg, and returns the
// checker for chaining. The counters aggregate across every page the
// checker sees, so a metrics endpoint answers "which rules fire most"
// without waiting for the store to fill.
func (c *Checker) Instrument(reg *obs.Registry) *Checker {
	ids := make([]string, len(c.rules))
	for i, r := range c.rules {
		ids[i] = r.ID
	}
	byID := reg.CounterVec("core_rule_hits_total", "rule", ids...)
	c.hits = make([]*obs.Counter, len(c.rules))
	for i, r := range c.rules {
		c.hits[i] = byID[r.ID]
	}
	c.pages = reg.Counter("core_pages_checked_total")
	return c
}

// Check checks the document (see CheckContext). It returns
// htmlparse.ErrNotUTF8 for documents the pipeline must filter (paper
// §4.1).
func (c *Checker) Check(html []byte) (*Report, error) {
	rep, _, err := c.CheckContext(nil, html, htmlparse.Options{})
	return rep, err
}

// cancelStride is how many tokens the streaming source processes
// between context polls; mirrors the tree builder's stride.
const cancelStride = 512

// CheckContext checks the document in one pass over it. Every tag the
// tokenizer emits goes to the Token hooks and the page signals as it is
// read; the Error hooks then run over the parse errors, the Tree hooks
// over the finished parse, and the findings are assembled rule by rule
// in the checker's order.
//
// The source follows from the rule set. When some rule has a Tree hook
// (or opts.Context asks for a fragment parse) the tags come from the
// tree builder's OnTag, and the Result is returned with the report; the
// checker sets opts.OnTag itself, so a caller's hook is replaced. Otherwise
// the tags come from a constant-memory htmlparse.TokenStream, no tree is
// built, opts.MaxTreeDepth has nothing to bound, and the Result is nil.
//
// ctx bounds the check: both sources poll it between token batches, so a
// request deadline or a client disconnect interrupts a hostile document
// mid-way, and the check returns ctx's error and no report. A nil ctx
// never cancels.
func (c *Checker) CheckContext(ctx context.Context, html []byte, opts htmlparse.Options) (*Report, *htmlparse.Result, error) {
	p := c.newPass()
	if !c.needTree && opts.Context == "" {
		if err := p.stream(ctx, html); err != nil {
			return nil, nil, err
		}
		return p.report(), nil, nil
	}
	opts.OnTag = p.tag
	res, err := htmlparse.ParseReuseContext(ctx, html, opts)
	if err != nil {
		return nil, nil, err
	}
	p.errors(res.Errors)
	for i := range c.rules {
		if tree := c.rules[i].Tree; tree != nil {
			p.cur = i
			tree(res, p.emit)
		}
	}
	return p.report(), res, nil
}

// pass is the per-document state of one check over the checker's rules:
// the findings each rule has emitted so far (parallel to rules) and the
// signals.
type pass struct {
	*Checker
	found [][]Finding
	// cur indexes the rule whose hook is running; emit, the one emit
	// func every hook is handed, files findings under it.
	cur  int
	emit func(Finding)
	sig  Signals
}

func (c *Checker) newPass() *pass {
	p := &pass{Checker: c, found: make([][]Finding, len(c.rules))}
	p.emit = func(f Finding) { p.found[p.cur] = append(p.found[p.cur], f) }
	return p
}

// tag feeds one start or end tag to the signals and the Token hooks.
func (p *pass) tag(t *htmlparse.Token) {
	if t.Type == htmlparse.StartTagToken {
		p.sig.observe(t)
	}
	for _, i := range p.tokenRules {
		p.cur = i
		p.rules[i].Token(t, p.emit)
	}
}

// errors feeds the parse errors, in input order, to the Error hooks.
func (p *pass) errors(errs []htmlparse.ParseError) {
	for i := range p.rules {
		if hook := p.rules[i].Error; hook != nil {
			p.cur = i
			for _, e := range errs {
				hook(e, p.emit)
			}
		}
	}
}

// stream drains a token stream over html into the pass: the tags as they
// come, then the merged parse errors. No token is retained, so the pass
// holds O(1) state beyond the findings.
func (p *pass) stream(ctx context.Context, html []byte) error {
	ts, err := htmlparse.NewTokenStream(html)
	if err != nil {
		return err
	}
	defer ts.Close()
	// One token variable for the whole loop: its address is passed to
	// opaque hook funcs, so it escapes — once per document, not per token.
	var t htmlparse.Token
	tick := 0
	for {
		if ctx != nil {
			if tick++; tick >= cancelStride {
				tick = 0
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}
		t = ts.Next()
		if t.Type == htmlparse.EOFToken {
			break
		}
		if t.Type == htmlparse.StartTagToken || t.Type == htmlparse.EndTagToken {
			p.tag(&t)
		}
	}
	p.errors(ts.Errors())
	return nil
}

// report assembles a finished pass: each rule's findings in the
// checker's rule order, the per-rule hit counts and the signals, and
// records the instrumented counters.
func (p *pass) report() *Report {
	rep := &Report{RuleHits: make(map[string]int, len(p.rules)), Signals: p.sig}
	for i := range p.rules {
		if fs := p.found[i]; len(fs) > 0 {
			rep.RuleHits[p.rules[i].ID] = len(fs)
			rep.Findings = append(rep.Findings, fs...)
		}
	}
	if p.pages != nil {
		p.pages.Inc()
		for i := range p.rules {
			if n := rep.RuleHits[p.rules[i].ID]; n > 0 {
				p.hits[i].Add(uint64(n))
			}
		}
	}
	return rep
}

// observe folds one start tag into the signals. The check calls it once
// per start tag as the tags arrive, from either source.
//
//hv:hotpath runs once per start tag on the constant-memory streaming path
func (s *Signals) observe(t *htmlparse.Token) {
	switch t.Data {
	case "math":
		s.UsesMath = true
	case "svg":
		s.UsesSVG = true
	}
	hasNonce := false
	hasScriptStr := false
	for _, a := range t.Attr {
		if urlAttributes[a.Name] && strings.ContainsRune(a.RawValue, '\n') {
			s.NewlineInURL = true
			if strings.ContainsRune(a.RawValue, '<') {
				s.NewlineAndLtInURL = true
			}
		}
		if strings.Contains(strings.ToLower(a.RawValue), "<script") {
			s.ScriptInAttribute = true
			hasScriptStr = true
		}
		if a.Name == "nonce" {
			hasNonce = true
		}
	}
	if t.Data == "script" && hasNonce && hasScriptStr {
		s.NonceScriptAffected = true
	}
}
