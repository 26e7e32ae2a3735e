// Package warc reads and writes WARC/1.0 archives (ISO 28500), the format
// Common Crawl publishes its monthly snapshots in. The implementation
// covers what the measurement pipeline needs: response/request/warcinfo
// records, per-record gzip members (Common Crawl's layout, which makes
// single records addressable by byte offset), and offset-addressed access.
package warc

import (
	"bufio"
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Record types from the WARC specification.
const (
	TypeWarcinfo = "warcinfo"
	TypeResponse = "response"
	TypeRequest  = "request"
	TypeMetadata = "metadata"
	TypeResource = "resource"
)

// Standard header names.
const (
	HeaderType          = "WARC-Type"
	HeaderRecordID      = "WARC-Record-ID"
	HeaderDate          = "WARC-Date"
	HeaderTargetURI     = "WARC-Target-URI"
	HeaderContentType   = "Content-Type"
	HeaderContentLength = "Content-Length"
	HeaderPayloadType   = "WARC-Identified-Payload-Type"
	HeaderIPAddress     = "WARC-IP-Address"
	HeaderFilename      = "WARC-Filename"
	HeaderConcurrentTo  = "WARC-Concurrent-To"
)

const version = "WARC/1.0"

// ErrMalformed reports a syntactically invalid record.
var ErrMalformed = errors.New("warc: malformed record")

// Record is one WARC record: a header block plus an opaque content block.
type Record struct {
	Headers Headers
	Block   []byte
}

// Headers is a case-insensitive WARC named-field collection that preserves
// a canonical write order.
type Headers struct {
	kv []headerField
}

type headerField struct{ name, value string }

// Set adds or replaces a header (case-insensitive on the name).
func (h *Headers) Set(name, value string) {
	for i := range h.kv {
		if strings.EqualFold(h.kv[i].name, name) {
			h.kv[i].value = value
			return
		}
	}
	h.kv = append(h.kv, headerField{name, value})
}

// Get returns the value of the named header ("" if absent).
func (h *Headers) Get(name string) string {
	for i := range h.kv {
		if strings.EqualFold(h.kv[i].name, name) {
			return h.kv[i].value
		}
	}
	return ""
}

// Names returns all header names in insertion order.
func (h *Headers) Names() []string {
	out := make([]string, len(h.kv))
	for i := range h.kv {
		out[i] = h.kv[i].name
	}
	return out
}

// Len reports the number of named fields.
func (h *Headers) Len() int { return len(h.kv) }

// Type is shorthand for the WARC-Type header.
func (r *Record) Type() string { return r.Headers.Get(HeaderType) }

// TargetURI is shorthand for the WARC-Target-URI header.
func (r *Record) TargetURI() string { return r.Headers.Get(HeaderTargetURI) }

// Date parses the WARC-Date header.
func (r *Record) Date() (time.Time, error) {
	return time.Parse(time.RFC3339, r.Headers.Get(HeaderDate))
}

// NewResponse builds a response record wrapping an HTTP response block.
func NewResponse(uri string, date time.Time, httpBlock []byte) *Record {
	r := &Record{Block: httpBlock}
	r.Headers.Set(HeaderType, TypeResponse)
	r.Headers.Set(HeaderRecordID, newRecordID(uri, date, len(httpBlock)))
	r.Headers.Set(HeaderDate, date.UTC().Format(time.RFC3339))
	r.Headers.Set(HeaderTargetURI, uri)
	r.Headers.Set(HeaderContentType, "application/http; msgtype=response")
	r.Headers.Set(HeaderContentLength, strconv.Itoa(len(httpBlock)))
	return r
}

// NewRequest builds a request record paired with a response record (the
// WARC-Concurrent-To linkage Common Crawl uses).
func NewRequest(uri string, date time.Time, httpBlock []byte, responseID string) *Record {
	r := &Record{Block: httpBlock}
	r.Headers.Set(HeaderType, TypeRequest)
	r.Headers.Set(HeaderRecordID, newRecordID("req:"+uri, date, len(httpBlock)))
	r.Headers.Set(HeaderDate, date.UTC().Format(time.RFC3339))
	r.Headers.Set(HeaderTargetURI, uri)
	if responseID != "" {
		r.Headers.Set(HeaderConcurrentTo, responseID)
	}
	r.Headers.Set(HeaderContentType, "application/http; msgtype=request")
	r.Headers.Set(HeaderContentLength, strconv.Itoa(len(httpBlock)))
	return r
}

// NewWarcinfo builds the warcinfo record that leads a WARC file.
func NewWarcinfo(filename string, date time.Time, fields map[string]string) *Record {
	var b bytes.Buffer
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s: %s\r\n", k, fields[k])
	}
	r := &Record{Block: b.Bytes()}
	r.Headers.Set(HeaderType, TypeWarcinfo)
	r.Headers.Set(HeaderRecordID, newRecordID(filename, date, b.Len()))
	r.Headers.Set(HeaderDate, date.UTC().Format(time.RFC3339))
	r.Headers.Set(HeaderFilename, filename)
	r.Headers.Set(HeaderContentType, "application/warc-fields")
	r.Headers.Set(HeaderContentLength, strconv.Itoa(b.Len()))
	return r
}

// newRecordID derives a deterministic urn:uuid-style record ID. Archives
// must be reproducible across runs, so no global randomness is used.
func newRecordID(seedA string, date time.Time, seedB int) string {
	h := fnv64(seedA) ^ uint64(date.UnixNano()) ^ fnv64(strconv.Itoa(seedB))
	h2 := fnv64(seedA + "#2")
	return fmt.Sprintf("<urn:uuid:%08x-%04x-%04x-%04x-%012x>",
		uint32(h), uint16(h>>32), 0x4000|uint16(h>>48)&0x0fff,
		0x8000|uint16(h2)&0x3fff, h2>>16&0xffffffffffff)
}

func fnv64(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// writeTo serializes the record (uncompressed) to w.
func (r *Record) writeTo(w io.Writer) error {
	var b bytes.Buffer
	b.WriteString(version)
	b.WriteString("\r\n")
	for _, f := range r.Headers.kv {
		b.WriteString(f.name)
		b.WriteString(": ")
		b.WriteString(f.value)
		b.WriteString("\r\n")
	}
	b.WriteString("\r\n")
	b.Write(r.Block)
	b.WriteString("\r\n\r\n")
	_, err := w.Write(b.Bytes())
	return err
}

// Writer writes records to an underlying stream. When Compressed, each
// record becomes its own gzip member — the Common Crawl layout that lets
// the CDX index address records by (offset, length).
type Writer struct {
	w          countingWriter
	Compressed bool
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// NewWriter returns a Writer emitting per-record gzip members.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: countingWriter{w: w}, Compressed: true}
}

// NewPlainWriter returns a Writer emitting uncompressed records.
func NewPlainWriter(w io.Writer) *Writer {
	return &Writer{w: countingWriter{w: w}}
}

// Offset reports the byte offset the next record will start at.
func (w *Writer) Offset() int64 { return w.w.n }

// Write appends one record and returns its (offset, length) within the
// stream — the coordinates a CDX index stores.
func (w *Writer) Write(r *Record) (offset, length int64, err error) {
	offset = w.w.n
	if !w.Compressed {
		if err := r.writeTo(&w.w); err != nil {
			return 0, 0, err
		}
		return offset, w.w.n - offset, nil
	}
	gz := gzip.NewWriter(&w.w)
	if err := r.writeTo(gz); err != nil {
		return 0, 0, err
	}
	if err := gz.Close(); err != nil {
		return 0, 0, err
	}
	return offset, w.w.n - offset, nil
}

// Reader reads records sequentially from a WARC stream, transparently
// handling per-record gzip members.
type Reader struct {
	br *bufio.Reader
	gz gzip.Reader // reset for each member
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Next returns the next record, or io.EOF at the end of the stream.
func (r *Reader) Next() (*Record, error) {
	peek, err := r.br.Peek(2)
	if err != nil {
		return nil, err
	}
	if isGzip(peek) {
		// The inflater reads r.br a byte at a time, so it stops at the
		// member's end and the next Peek lands on the next gzip header.
		member, err := inflate(&r.gz, r.br, 0)
		if err != nil {
			return nil, err
		}
		return parseRecord(member)
	}
	return readPlainRecord(r.br)
}

// ReadAll drains the stream into a slice of records.
func (r *Reader) ReadAll() ([]*Record, error) {
	var out []*Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// inflater is the pooled decoder state of ReadRecordAt: a gzip reader
// (whose flate decompressor keeps its 32 KiB window across resets) and
// the byte source it reads a member from.
type inflater struct {
	src bytes.Reader
	gz  gzip.Reader
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// maxSizeHint caps the output buffer ReadRecordAt sizes from a member's
// ISIZE trailer, a field only as trustworthy as the input.
const maxSizeHint = 1 << 20

// ReadRecordAt decodes the single record stored at data[offset:offset+length]
// — how a Common Crawl client materializes one page from an S3 range read.
// The returned record never aliases data.
func ReadRecordAt(data []byte, offset, length int64) (*Record, error) {
	if offset < 0 || length <= 0 || offset+length > int64(len(data)) {
		return nil, fmt.Errorf("%w: range [%d,%d) outside %d bytes", ErrMalformed, offset, offset+length, len(data))
	}
	b := data[offset : offset+length]
	if !isGzip(b) {
		rec, err := parseRecord(b)
		if err != nil {
			return nil, err
		}
		rec.Block = bytes.Clone(rec.Block)
		return rec, nil
	}
	hint := 0
	if len(b) >= 4 {
		hint = int(min(binary.LittleEndian.Uint32(b[len(b)-4:]), maxSizeHint))
	}
	inf := inflaters.Get().(*inflater)
	inf.src.Reset(b)
	member, err := inflate(&inf.gz, &inf.src, hint)
	inf.src.Reset(nil) // the pool must not pin data
	inflaters.Put(inf)
	if err != nil {
		return nil, err
	}
	return parseRecord(member)
}

func isGzip(b []byte) bool { return len(b) >= 2 && b[0] == 0x1f && b[1] == 0x8b }

// inflate decompresses the gzip member at the head of src into a fresh
// buffer sized for hint bytes (the spare byte lets an exact hint see EOF
// without growing). It reads to the member's end, so the CRC-32 and
// ISIZE trailer checks run, and leaves src just past it.
func inflate(gz *gzip.Reader, src flate.Reader, hint int) ([]byte, error) {
	if err := gz.Reset(src); err != nil {
		return nil, fmt.Errorf("%w: gzip: %w", ErrMalformed, err)
	}
	gz.Multistream(false)
	buf := make([]byte, 0, max(hint+1, 512))
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := gz.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%w: gzip: %w", ErrMalformed, err)
		}
	}
}

// parseRecord parses the uncompressed record at the head of b. The
// Block aliases b and is bounded by it: a Content-Length larger than the
// bytes present is malformed, never an allocation.
func parseRecord(b []byte) (*Record, error) {
	rec, n, err := parseHead(func() (string, error) {
		line, rest, ok := cutLine(b)
		if !ok {
			return "", io.EOF
		}
		b = rest
		return line, nil
	})
	if err == io.EOF {
		return nil, fmt.Errorf("%w: no record", ErrMalformed)
	}
	if err != nil {
		return nil, err
	}
	if n > int64(len(b)) {
		return nil, fmt.Errorf("%w: block: content-length %d exceeds the %d bytes present", ErrMalformed, n, len(b))
	}
	rec.Block = b[:n:n]
	return rec, nil
}

// readPlainRecord reads one uncompressed record from a stream.
func readPlainRecord(br *bufio.Reader) (*Record, error) {
	rec, n, err := parseHead(func() (string, error) { return readLine(br) })
	if err != nil {
		return nil, err
	}
	// Grow the block as its bytes arrive, so a Content-Length the stream
	// cannot back costs no more memory than the stream holds.
	var block bytes.Buffer
	block.Grow(int(min(n, 64<<10)))
	if _, err := io.CopyN(&block, br, n); err != nil {
		return nil, fmt.Errorf("%w: block: %v", ErrMalformed, err)
	}
	rec.Block = block.Bytes()
	// Trailing CRLF CRLF (tolerated if absent at EOF).
	for i := 0; i < 4; i++ {
		b, err := br.ReadByte()
		if err != nil {
			break
		}
		if b != '\r' && b != '\n' {
			_ = br.UnreadByte()
			break
		}
	}
	return rec, nil
}

// parseHead parses a record's version line and named fields from the
// lines next returns, and the block length its Content-Length declares.
// Leading blank lines are skipped; an input that ends before the version
// line returns io.EOF.
func parseHead(next func() (string, error)) (*Record, int64, error) {
	line, err := next()
	for err == nil && line == "" {
		line, err = next()
	}
	if err != nil {
		return nil, 0, err
	}
	if !strings.HasPrefix(line, "WARC/") {
		return nil, 0, fmt.Errorf("%w: bad version line %q", ErrMalformed, line)
	}
	rec := &Record{}
	for {
		line, err = next()
		if err != nil {
			return nil, 0, fmt.Errorf("%w: header: %v", ErrMalformed, err)
		}
		if line == "" {
			break
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			return nil, 0, fmt.Errorf("%w: header line %q", ErrMalformed, line)
		}
		rec.Headers.Set(strings.TrimSpace(name), strings.TrimSpace(value))
	}
	n, err := strconv.ParseInt(rec.Headers.Get(HeaderContentLength), 10, 64)
	if err != nil || n < 0 {
		return nil, 0, fmt.Errorf("%w: content-length %q", ErrMalformed, rec.Headers.Get(HeaderContentLength))
	}
	return rec, n, nil
}

func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil && line == "" {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

// cutLine splits the first line off b with its terminator dropped, as
// readLine does on a stream. ok is false when b is empty.
func cutLine(b []byte) (line string, rest []byte, ok bool) {
	if len(b) == 0 {
		return "", b, false
	}
	end, next := len(b), len(b)
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		end, next = i, i+1
	}
	return string(bytes.TrimRight(b[:end], "\r")), b[next:], true
}
