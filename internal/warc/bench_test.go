package warc

import "testing"

// BenchmarkReadRecordAt is the WARC read+gunzip layer on its own: one
// corpus-sized response record decoded from its gzip member and split
// into HTTP headers and body, as commoncrawl.FetchCapture does per page.
func BenchmarkReadRecordAt(b *testing.B) {
	data := writeRecord(b, NewResponse("https://example.org/", testDate,
		BuildHTTPResponse(200, "text/html; charset=utf-8", corpusPage())))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec, err := ReadRecordAt(data, 0, int64(len(data)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ParseHTTPResponse(rec.Block); err != nil {
			b.Fatal(err)
		}
	}
}
