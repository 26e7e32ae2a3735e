package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCheck(t *testing.T, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func TestCheckStdin(t *testing.T) {
	code, out, _ := runCheck(t, `<div id=a id=a>x</div>`)
	if code != 1 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "DM3") {
		t.Fatalf("out = %q", out)
	}

	code, out, _ = runCheck(t, `<!DOCTYPE html><html><head><title>t</title></head><body><p>x</p></body></html>`)
	if code != 0 || out != "" {
		t.Fatalf("clean doc: code=%d out=%q", code, out)
	}
}

func TestCheckFiles(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.html")
	good := filepath.Join(dir, "good.html")
	os.WriteFile(bad, []byte(`<img/src=x/onerror=e>`), 0o644)
	os.WriteFile(good, []byte(`<!DOCTYPE html><html><head><title>t</title></head><body>ok</body></html>`), 0o644)

	code, out, _ := runCheck(t, "", bad, good)
	if code != 1 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "bad.html") || !strings.Contains(out, "FB1") {
		t.Fatalf("out = %q", out)
	}
	if strings.Contains(out, "good.html") {
		t.Fatalf("good file flagged: %q", out)
	}

	code, _, errb := runCheck(t, "", filepath.Join(dir, "missing.html"))
	if code != 2 || !strings.Contains(errb, "missing.html") {
		t.Fatalf("missing file: code=%d err=%q", code, errb)
	}
}

func TestCheckJSONOutput(t *testing.T) {
	_, out, _ := runCheck(t, `<a href=x"t">l</a>`, "-json")
	line := strings.SplitN(strings.TrimSpace(out), "\n", 2)[0]
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("bad json %q: %v", line, err)
	}
	if rec["file"] != "<stdin>" || rec["rule"] == "" {
		t.Fatalf("rec = %v", rec)
	}
}

func TestCheckRuleFilter(t *testing.T) {
	// Only FB2 requested; the DM3 on the same input must not appear.
	code, out, _ := runCheck(t, `<img src="a"alt="b" id=x id=y>`, "-rules", "FB2")
	if code != 1 {
		t.Fatalf("exit = %d", code)
	}
	if strings.Contains(out, "DM3") {
		t.Fatalf("filter leaked: %q", out)
	}
}

func TestCheckUnknownRule(t *testing.T) {
	// A mistyped ID must not leave a checker with no rules that passes
	// every document.
	code, out, errb := runCheck(t, `<h1 class=a class=b>`, "-rules", "DM33")
	if code != 2 || out != "" || !strings.Contains(errb, `"DM33"`) {
		t.Fatalf("unknown rule: code=%d out=%q err=%q", code, out, errb)
	}
}

func TestCheckStreamMode(t *testing.T) {
	code, out, _ := runCheck(t, `<img/src=x>`, "-stream")
	if code != 1 || !strings.Contains(out, "FB1") {
		t.Fatalf("stream: code=%d out=%q", code, out)
	}
}

func TestCheckList(t *testing.T) {
	code, out, _ := runCheck(t, "", "-list")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, id := range []string{"DE1", "DM2_3", "HF5_3", "FB2"} {
		if !strings.Contains(out, id) {
			t.Fatalf("list missing %s", id)
		}
	}
}

func TestCheckQuiet(t *testing.T) {
	code, out, _ := runCheck(t, `<div a=1 a=2>`, "-q")
	if code != 1 || out != "" {
		t.Fatalf("quiet: code=%d out=%q", code, out)
	}
}

func TestCheckNonUTF8Skipped(t *testing.T) {
	code, _, errb := runCheck(t, "caf\xe9")
	if code != 0 || !strings.Contains(errb, "not UTF-8") {
		t.Fatalf("non-utf8: code=%d err=%q", code, errb)
	}
}

func TestCheckShowSource(t *testing.T) {
	code, out, _ := runCheck(t, "<p>fine</p>\n<div id=a id=b>dup</div>\n", "-show-source")
	if code != 1 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "<div id=a id=b>dup</div>") {
		t.Fatalf("source line missing: %q", out)
	}
	if !strings.Contains(out, "^") {
		t.Fatalf("caret missing: %q", out)
	}
}
