package core

import (
	"testing"

	"github.com/hvscan/hvscan/internal/corpus"
)

// TestStreamVsFullOnCorpus: on realistic pages the streaming (tokenizer-
// only) checker and the full checker must agree on every tokenizer-level
// rule — the property that makes the cheap scan a sound pre-filter.
func TestStreamVsFullOnCorpus(t *testing.T) {
	g := corpus.New(corpus.Config{Seed: 13, Domains: 120, MaxPages: 3})
	full := NewChecker()
	stream := NewStreamingChecker()
	snap := corpus.Snapshots[4]
	pages := 0
	for _, d := range g.Universe() {
		if !g.Succeeds(d, snap) {
			continue
		}
		n := g.PageCount(d, snap)
		if n > 2 {
			n = 2
		}
		for i := 0; i < n; i++ {
			body := g.PageHTML(d, snap, i)
			fullRep, err := full.Check(body)
			if err != nil {
				t.Fatal(err)
			}
			streamRep, err := stream.Check(body)
			if err != nil {
				t.Fatal(err)
			}
			pages++
			for _, rule := range stream.Rules() {
				if fullRep.Violated(rule.ID) != streamRep.Violated(rule.ID) {
					t.Fatalf("%s page %d: %s full=%v stream=%v\n%s",
						d, i, rule.ID, fullRep.Violated(rule.ID), streamRep.Violated(rule.ID), body)
				}
			}
			// Signals must agree too (both are token-derived).
			if fullRep.Signals != streamRep.Signals {
				t.Fatalf("%s page %d: signals differ: %+v vs %+v",
					d, i, fullRep.Signals, streamRep.Signals)
			}
		}
	}
	if pages < 150 {
		t.Fatalf("only %d pages compared", pages)
	}
}
