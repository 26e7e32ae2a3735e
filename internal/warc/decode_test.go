package warc

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// corpusPage returns a ~1.5 KB HTML page, the size of a median page of
// the synthetic corpus.
func corpusPage() []byte {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html><html lang=en><head><meta charset=utf-8><title>Page</title></head><body>\n")
	for i := 0; b.Len() < 1450; i++ {
		fmt.Fprintf(&b, "<p class=c%d>Paragraph %d of the article, with a <a href=/p/%d>link</a>.</p>\n", i%7, i, i*31)
	}
	b.WriteString("</body></html>\n")
	return []byte(b.String())
}

// gzipMember compresses raw into one gzip member, as Writer does.
func gzipMember(t testing.TB, raw string) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write([]byte(raw)); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeRecord writes rec as one gzip member and returns the member.
func writeRecord(t testing.TB, rec *Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, _, err := NewWriter(&buf).Write(rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// serialized is rec's uncompressed wire form, for byte-for-byte
// comparison of two records.
func serialized(t testing.TB, rec *Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.writeTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hostileRecord declares a 1 TiB block and carries none of it.
const hostileRecord = "WARC/1.0\r\nWARC-Type: response\r\nContent-Length: 1099511627776\r\n\r\n"

// TestHostileContentLength: a Content-Length larger than the bytes
// present is malformed, on every read path, and allocates nothing of
// its size (which would end the process, not return an error).
func TestHostileContentLength(t *testing.T) {
	member := gzipMember(t, hostileRecord)
	if len(member) > 100 {
		t.Fatalf("member is %d bytes, want a small one", len(member))
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"gzip", member},
		{"plain", []byte(hostileRecord + "short")},
	} {
		if _, err := ReadRecordAt(tc.data, 0, int64(len(tc.data))); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: ReadRecordAt err = %v, want ErrMalformed", tc.name, err)
		}
		if _, err := NewReader(bytes.NewReader(tc.data)).Next(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: Next err = %v, want ErrMalformed", tc.name, err)
		}
	}
}

// TestReadRecordAtNeverAliasesInput: the decoded Block and Body survive
// the caller overwriting the range, which may be a shared cache entry.
func TestReadRecordAtNeverAliasesInput(t *testing.T) {
	body := corpusPage()
	rec := NewResponse("https://example.org/", testDate, BuildHTTPResponse(200, "text/html", body))
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"gzip", writeRecord(t, rec)},
		{"plain", serialized(t, rec)},
	} {
		got, err := ReadRecordAt(tc.data, 0, int64(len(tc.data)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp, err := ParseHTTPResponse(got.Block)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := range tc.data {
			tc.data[i] = 'X'
		}
		if !bytes.Equal(got.Block, rec.Block) || !bytes.Equal(resp.Body, body) {
			t.Errorf("%s: decoded record changed when the input was overwritten", tc.name)
		}
	}
}

// TestReadRecordAtCorruptMembers: corrupt and truncated members are
// malformed, and the pooled inflater that just failed on one decodes the
// next good member exactly.
func TestReadRecordAtCorruptMembers(t *testing.T) {
	rec := NewResponse("https://example.org/", testDate, BuildHTTPResponse(200, "text/html", corpusPage()))
	good := writeRecord(t, rec)
	badCRC := bytes.Clone(good)
	badCRC[len(badCRC)-8] ^= 0xff
	badSize := bytes.Clone(good)
	badSize[len(badSize)-1] ^= 0x01
	cases := map[string][]byte{
		"truncated":    good[:len(good)/2],
		"no trailer":   good[:len(good)-8],
		"bad crc":      badCRC,
		"bad isize":    badSize,
		"header only":  good[:10],
		"empty member": gzipMember(t, ""),
	}
	for name, data := range cases {
		if _, err := ReadRecordAt(data, 0, int64(len(data))); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
		got, err := ReadRecordAt(good, 0, int64(len(good)))
		if err != nil {
			t.Fatalf("good member after %s: %v", name, err)
		}
		if !bytes.Equal(serialized(t, got), serialized(t, rec)) {
			t.Fatalf("good member after %s did not round-trip", name)
		}
	}
}

// TestReadRecordAtConcurrent runs ReadRecordAt from several goroutines
// over one shared archive, good and corrupt records interleaved; run it
// with -race to check the inflater pool shares no state.
func TestReadRecordAtConcurrent(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	type loc struct{ off, length int64 }
	var locs []loc
	var bodies [][]byte
	for i := 0; i < 16; i++ {
		body := append(corpusPage(), strings.Repeat("z", i*97)...)
		off, length, err := w.Write(NewResponse(fmt.Sprintf("https://example.org/%d", i), testDate,
			BuildHTTPResponse(200, "text/html", body)))
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, loc{off, length})
		bodies = append(bodies, body)
	}
	data := buf.Bytes()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				i := (g*7 + n*5) % len(locs)
				if n%3 == 0 { // a truncated member, to fail mid-stream
					if _, err := ReadRecordAt(data, locs[i].off, locs[i].length-9); err == nil {
						t.Errorf("truncated record %d decoded", i)
						return
					}
					continue
				}
				rec, err := ReadRecordAt(data, locs[i].off, locs[i].length)
				if err != nil {
					t.Errorf("record %d: %v", i, err)
					return
				}
				resp, err := ParseHTTPResponse(rec.Block)
				if err != nil || !bytes.Equal(resp.Body, bodies[i]) {
					t.Errorf("record %d: wrong body (err %v)", i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// allocBytesPerRun reports the bytes f allocates per call, averaged over
// runs calls after a warm-up call, in the manner of testing.AllocsPerRun.
func allocBytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestReadRecordAtAllocBytes pins the cost of decoding one corpus-sized
// page: allocations in proportion to the page, not a fresh inflater and
// read buffers (~123 KB) per record.
func TestReadRecordAtAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation figures under the race detector are not the program's")
	}
	data := writeRecord(t, NewResponse("https://example.org/", testDate,
		BuildHTTPResponse(200, "text/html; charset=utf-8", corpusPage())))
	got := allocBytesPerRun(200, func() {
		rec, err := ReadRecordAt(data, 0, int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseHTTPResponse(rec.Block); err != nil {
			t.Fatal(err)
		}
	})
	const limit = 16 << 10
	t.Logf("ReadRecordAt + ParseHTTPResponse: %.0f B/op for a %d-byte member", got, len(data))
	if got > limit {
		t.Fatalf("ReadRecordAt + ParseHTTPResponse allocate %.0f B/op, want <= %d", got, limit)
	}
}

// FuzzReadRecordAt: no input panics either read path, every failure is
// ErrMalformed, a decoded record never aliases its input, and the pooled
// inflater that just handled the input still round-trips a good record
// byte for byte.
func FuzzReadRecordAt(f *testing.F) {
	rec := NewResponse("https://example.org/", testDate, BuildHTTPResponse(200, "text/html", []byte("<p>hi</p>")))
	good := writeRecord(f, rec)
	want := serialized(f, rec)
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data)
		got, err := ReadRecordAt(in, 0, int64(len(in)))
		if err != nil && !errors.Is(err, ErrMalformed) {
			t.Fatalf("error %v does not wrap ErrMalformed", err)
		}
		if err == nil {
			block := bytes.Clone(got.Block)
			for i := range in {
				in[i] = 0
			}
			if !bytes.Equal(got.Block, block) {
				t.Fatal("decoded Block aliases the input")
			}
		}
		_, _ = NewReader(bytes.NewReader(data)).ReadAll()

		got, err = ReadRecordAt(good, 0, int64(len(good)))
		if err != nil {
			t.Fatalf("good record after this input: %v", err)
		}
		if !bytes.Equal(serialized(t, got), want) {
			t.Fatal("good record after this input did not round-trip")
		}
	})
}
