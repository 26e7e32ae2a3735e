package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/hvscan/hvscan/internal/htmlparse"
)

// TestCheckStreamContextMatchesCheckStream: CheckContext reports exactly
// what Check does on both sources, returns the parse only when it built
// one, and leaves a fragment parse to the tree source.
func TestCheckStreamContextMatchesCheckStream(t *testing.T) {
	html := []byte("<!DOCTYPE html><p id=a id=b>x</p><img src=\"a\nb<c\"><table><b>y</b></table>")
	for _, c := range []*Checker{NewStreamingChecker(), NewChecker()} {
		want, err := c.Check(html)
		if err != nil {
			t.Fatal(err)
		}
		got, res, err := c.CheckContext(context.Background(), html, htmlparse.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("CheckContext diverged from Check:\n got  %+v\n want %+v", got, want)
		}
		if (res != nil) != c.NeedsTree() {
			t.Fatalf("NeedsTree=%v but Result=%v", c.NeedsTree(), res)
		}
	}
	rep, res, err := NewStreamingChecker().CheckContext(context.Background(),
		[]byte("<td a=1 a=2>"), htmlparse.Options{Context: "tr"})
	if err != nil || res == nil || !rep.Violated("DM3") {
		t.Fatalf("fragment check: rep=%v res=%v err=%v", rep, res, err)
	}
}

func TestCheckStreamContextCancellation(t *testing.T) {
	// Enough tags to cross the cancel stride repeatedly.
	html := []byte(strings.Repeat("<p a=b></p>", 10000))
	for _, c := range []*Checker{NewStreamingChecker(), NewChecker()} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		rep, res, err := c.CheckContext(ctx, html, htmlparse.Options{})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if rep != nil || res != nil {
			t.Fatal("canceled check returned a report or a parse")
		}
		// The pooled token stream or parser recycled by the aborted check
		// must be clean for the next caller.
		rep, _, err = c.CheckContext(context.Background(), []byte("<p>ok</p>"), htmlparse.Options{})
		if err != nil || rep == nil {
			t.Fatalf("check after aborted check: rep=%v err=%v", rep, err)
		}
	}
}
