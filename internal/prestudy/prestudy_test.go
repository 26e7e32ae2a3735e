package prestudy

import (
	"context"
	"testing"

	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/corpus"
	"github.com/hvscan/hvscan/internal/htmlparse"
)

func TestDynamicPreStudy(t *testing.T) {
	g := corpus.New(corpus.Config{Seed: 22, Domains: 1000, MaxPages: 2})
	// July 2021 in the paper; the 2021 snapshot is the closest.
	res, err := RunDynamic(g, corpus.Snapshots[6], 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sites < 400 {
		t.Fatalf("only %d sites had dynamic content", res.Sites)
	}
	// Paper: "more than 60% of the websites have at least one violation"
	// in dynamically loaded content.
	if res.ViolatingPct < 55 || res.ViolatingPct > 85 {
		t.Fatalf("dynamic violating rate %.1f%%, want ~60-80%%", res.ViolatingPct)
	}
	// Paper: the distribution mirrors the static study — FB2 and DM3 in
	// top positions…
	if len(res.TopRules) < 2 {
		t.Fatalf("top rules = %v", res.TopRules)
	}
	top2 := map[string]bool{res.TopRules[0]: true, res.TopRules[1]: true}
	if !top2["FB2"] || !top2["DM3"] {
		t.Fatalf("top rules = %v (want FB2 and DM3 leading)", res.TopRules)
	}
	// …while math-related violations hardly appear.
	if !res.MathRuleQuiet {
		t.Fatal("HF5_3 appeared in dynamic content")
	}
}

// TestDynamicFragmentsDetectable: every planted dynamic rule must be
// detected in the domain's fragments (the generator↔checker contract,
// fragment edition).
func TestDynamicFragmentsDetectable(t *testing.T) {
	g := corpus.New(corpus.Config{Seed: 9, Domains: 200, MaxPages: 2})
	checker := core.NewChecker()
	snap := corpus.Snapshots[3]
	checked := 0
	for _, d := range g.Universe() {
		count := g.DynamicFragmentCount(d, snap)
		if count == 0 {
			continue
		}
		detected := map[string]bool{}
		for i := 0; i < count; i++ {
			rep, _, err := checker.CheckContext(context.Background(), g.DynamicFragment(d, snap, i),
				htmlparse.Options{Context: "div"})
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range rep.ViolatedIDs() {
				detected[id] = true
			}
		}
		for _, want := range g.DynamicActiveRules(d, snap) {
			checked++
			if !detected[want] {
				t.Fatalf("%s: dynamic rule %s planted but not detected\nfragment 0: %s",
					d, want, g.DynamicFragment(d, snap, 0))
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d plantings checked", checked)
	}
}

func TestDynamicDeterministic(t *testing.T) {
	a := corpus.New(corpus.Config{Seed: 4, Domains: 50, MaxPages: 2})
	b := corpus.New(corpus.Config{Seed: 4, Domains: 50, MaxPages: 2})
	snap := corpus.Snapshots[5]
	for _, d := range a.Universe() {
		ca, cb := a.DynamicFragmentCount(d, snap), b.DynamicFragmentCount(d, snap)
		if ca != cb {
			t.Fatalf("%s: counts differ", d)
		}
		for i := 0; i < ca; i++ {
			if string(a.DynamicFragment(d, snap, i)) != string(b.DynamicFragment(d, snap, i)) {
				t.Fatalf("%s fragment %d differs", d, i)
			}
		}
	}
}
