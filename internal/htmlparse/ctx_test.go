package htmlparse

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func TestParseReuseContextCompletesLikeParse(t *testing.T) {
	in := []byte("<!DOCTYPE html><p class=a>hello <b>world</b></p>")
	var wantTags, gotTags int
	want, err := ParseWithOptions(in, Options{OnTag: func(*Token) { wantTags++ }})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseReuseContext(context.Background(), in, Options{OnTag: func(*Token) { gotTags++ }})
	if err != nil {
		t.Fatal(err)
	}
	if dw, dg := DumpTree(want.Doc), DumpTree(got.Doc); dw != dg {
		t.Fatalf("context parse diverged from Parse:\nwant:\n%s\ngot:\n%s", dw, dg)
	}
	if gotTags != wantTags || len(got.Errors) != len(want.Errors) {
		t.Fatalf("tags/errors mismatch: got %d/%d want %d/%d",
			gotTags, len(got.Errors), wantTags, len(want.Errors))
	}
}

func TestParseReuseContextCancellationAborts(t *testing.T) {
	// A document long enough that the cancel stride (512 tokens) is
	// crossed many times.
	in := []byte("<!DOCTYPE html>" + strings.Repeat("<p>x</p>", 20000))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ParseReuseContext(ctx, in, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("canceled parse returned a partial Result")
	}
}

func TestParseReuseContextDepthCap(t *testing.T) {
	deep := []byte("<!DOCTYPE html>" + strings.Repeat("<div>", 5000))
	_, err := ParseReuseContext(context.Background(), deep, Options{MaxTreeDepth: 256})
	if !errors.Is(err, ErrTreeDepthExceeded) {
		t.Fatalf("err = %v, want ErrTreeDepthExceeded", err)
	}
	// A shallow document under the same cap parses fine, and the pooled
	// parser that just aborted is safely reusable.
	res, err := ParseReuseContext(context.Background(), []byte("<p>ok</p>"), Options{MaxTreeDepth: 256})
	if err != nil {
		t.Fatalf("shallow parse after aborted deep parse: %v", err)
	}
	if res.Doc == nil {
		t.Fatal("shallow parse returned no tree")
	}
}

// TestParseReuseContextAbortThenReusePool interleaves aborted and
// successful parses to prove an abort never corrupts pooled scratch.
func TestParseReuseContextAbortThenReusePool(t *testing.T) {
	deep := []byte(strings.Repeat("<span>", 2000))
	good := []byte("<!DOCTYPE html><ul><li>a<li>b</ul>")
	wantDump := ""
	for i := 0; i < 50; i++ {
		if _, err := ParseReuseContext(context.Background(), deep, Options{MaxTreeDepth: 64}); !errors.Is(err, ErrTreeDepthExceeded) {
			t.Fatalf("round %d: deep parse err = %v, want ErrTreeDepthExceeded", i, err)
		}
		res, err := ParseReuseContext(context.Background(), good, Options{})
		if err != nil {
			t.Fatalf("round %d: good parse: %v", i, err)
		}
		d := DumpTree(res.Doc)
		if wantDump == "" {
			wantDump = d
		} else if d != wantDump {
			t.Fatalf("round %d: pooled parser corrupted by aborted parse:\n%s", i, d)
		}
	}
}

// TestParseWithOptionsDepthCap holds the unpooled entry points to the
// same depth cap as the pooled one: every parse that takes Options
// honours MaxTreeDepth, fragments included.
func TestParseWithOptionsDepthCap(t *testing.T) {
	deep := []byte(strings.Repeat("<div>", 5000))
	for _, opts := range []Options{{MaxTreeDepth: 256}, {MaxTreeDepth: 256, Context: "div"}} {
		res, err := ParseWithOptions(deep, opts)
		if !errors.Is(err, ErrTreeDepthExceeded) || res != nil {
			t.Fatalf("ParseWithOptions(%+v) = %v, %v; want nil, ErrTreeDepthExceeded", opts, res, err)
		}
	}
	if _, err := ParseWithOptions([]byte("<p>ok</p>"), Options{MaxTreeDepth: 256}); err != nil {
		t.Fatalf("shallow parse under the cap: %v", err)
	}
}

// TestOnTagSeesEveryTag pins the tag hook's contract: one call per start
// or end tag in document order, no character or comment tokens, and tags
// the tree builder drops (the nested form) included.
func TestOnTagSeesEveryTag(t *testing.T) {
	in := []byte("<!DOCTYPE html><form><form action=x>t<!--c--></form><br/>")
	var got []string
	_, err := ParseWithOptions(in, Options{OnTag: func(tok *Token) {
		s := tok.Data
		if tok.Type == EndTagToken {
			s = "/" + s
		}
		for _, a := range tok.Attr {
			s += " " + a.Name + "=" + a.Value
		}
		got = append(got, s)
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := "form|form action=x|/form|br"
	if g := strings.Join(got, "|"); g != want {
		t.Fatalf("tags = %q, want %q", g, want)
	}
}
