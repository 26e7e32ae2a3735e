package warc

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// HTTP message helpers for request and response record blocks. A WARC
// response block holds the verbatim HTTP/1.1 response the crawler
// received (and a request block the request that elicited it); the
// pipeline needs to build such blocks (corpus generation) and split them
// back into headers and body (page extraction).

// HTTPResponse is a decoded HTTP response block.
type HTTPResponse struct {
	StatusCode int
	Status     string
	Headers    Headers
	Body       []byte
}

// BuildHTTPResponse serializes a minimal HTTP/1.1 response block with the
// given content type and body.
func BuildHTTPResponse(status int, contentType string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "HTTP/1.1 %d %s\r\n", status, statusText(status))
	fmt.Fprintf(&b, "Content-Type: %s\r\n", contentType)
	fmt.Fprintf(&b, "Content-Length: %d\r\n", len(body))
	b.WriteString("Connection: close\r\n\r\n")
	b.Write(body)
	return b.Bytes()
}

// BuildHTTPRequest serializes the HTTP/1.1 GET request block paired with
// a response capture, as Common Crawl stores alongside each response.
func BuildHTTPRequest(rawURL string) []byte {
	host, path := splitURL(rawURL)
	var b bytes.Buffer
	fmt.Fprintf(&b, "GET %s HTTP/1.1\r\n", path)
	fmt.Fprintf(&b, "Host: %s\r\n", host)
	b.WriteString("User-Agent: hvscan-crawler/1.0 (synthetic archive)\r\n")
	b.WriteString("Accept: text/html\r\nConnection: close\r\n\r\n")
	return b.Bytes()
}

func splitURL(rawURL string) (host, path string) {
	u := rawURL
	if i := strings.Index(u, "://"); i >= 0 {
		u = u[i+3:]
	}
	if i := strings.IndexByte(u, '/'); i >= 0 {
		return u[:i], u[i:]
	}
	return u, "/"
}

// ParseHTTPResponse splits a response block into status, headers and
// body. The Body aliases block.
func ParseHTTPResponse(block []byte) (*HTTPResponse, error) {
	statusLine, rest, ok := cutLine(block)
	if !ok {
		return nil, fmt.Errorf("%w: empty http block", ErrMalformed)
	}
	parts := strings.SplitN(statusLine, " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return nil, fmt.Errorf("%w: http status line %q", ErrMalformed, statusLine)
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, fmt.Errorf("%w: http status code %q", ErrMalformed, parts[1])
	}
	resp := &HTTPResponse{StatusCode: code}
	if len(parts) == 3 {
		resp.Status = parts[2]
	}
	for {
		var line string
		if line, rest, ok = cutLine(rest); !ok || line == "" {
			break
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			continue // tolerate junk header lines, like a crawler must
		}
		resp.Headers.Set(strings.TrimSpace(name), strings.TrimSpace(value))
	}
	resp.Body = rest[:len(rest):len(rest)]
	return resp, nil
}

func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 301:
		return "Moved Permanently"
	case 302:
		return "Found"
	case 304:
		return "Not Modified"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	case 503:
		return "Service Unavailable"
	}
	return "Unknown"
}
