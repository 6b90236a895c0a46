// Package lighttpd is the paper's third evaluation application
// (Section 6.4): a single-threaded, single-process static web server in
// the style of lighttpd 1.4.41, ported wholesale into an enclave.  The
// HTTP/1.0 request path is real — requests are parsed, files come from the
// kernel's file system via sendfile, and responses carry correct headers —
// while cycle costs flow through the simulated hierarchy.
package lighttpd

import (
	"errors"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Errors from request parsing.
var (
	ErrBadRequest = errors.New("lighttpd: malformed request line")
	ErrBadMethod  = errors.New("lighttpd: unsupported method")
)

// HTTPRequest is a parsed request line plus headers.
type HTTPRequest struct {
	Method  string
	Path    string
	Version string
	Headers map[string]string
}

// span is a half-open byte range of a scanned request.
type span struct{ lo, hi int }

// requestLine is scanRequest's result: the three request-line fields as
// ranges of the scanned input, so the caller takes views of its own
// string or buffer and the scanner allocates nothing.
type requestLine struct {
	method, path, version span
	head                  bool // method is HEAD (otherwise GET)
}

// spaceWidth returns the width in bytes of the white space starting at
// raw[i] — white space as strings.Fields defines it, unicode.IsSpace
// over UTF-8 — or 0 when raw[i] starts anything else.
func spaceWidth[S ~string | ~[]byte](raw S, i int) int {
	c := raw[i]
	if c < utf8.RuneSelf {
		if c == ' ' || '\t' <= c && c <= '\r' {
			return 1
		}
		return 0
	}
	var enc [utf8.UTFMax]byte
	n := 0
	for ; n < len(enc) && i+n < len(raw); n++ {
		enc[n] = raw[i+n]
	}
	if r, w := utf8.DecodeRune(enc[:n]); unicode.IsSpace(r) {
		return w
	}
	return 0
}

// lineEnd returns the index of the CRLF ending the line that starts at
// raw[i], or len(raw) when the input ends first.
func lineEnd[S ~string | ~[]byte](raw S, i int) int {
	for ; i < len(raw); i++ {
		if raw[i] == '\r' && i+1 < len(raw) && raw[i+1] == '\n' {
			break
		}
	}
	return i
}

// equalAt reports whether raw[sp.lo:sp.hi] spells word.
func equalAt[S ~string | ~[]byte](raw S, sp span, word string) bool {
	if sp.hi-sp.lo != len(word) {
		return false
	}
	for k := 0; k < len(word); k++ {
		if raw[sp.lo+k] != word[k] {
			return false
		}
	}
	return true
}

// scanRequest is the one HTTP/1.0 request-head grammar, shared by
// ParseRequest and route.  Lines end in CRLF and the head
// ends at the first empty line or the end of the input; the request
// line must hold exactly three white-space-separated fields
// (ErrBadRequest), the first of them GET or HEAD (ErrBadMethod), and
// every header line a colon (ErrBadRequest) — checked, and reported, in
// that order.  header, when non-nil, receives each header line as
// raw[line:end] with its first colon at raw[colon].  The scan works in
// place on a string or a byte buffer, by index only, and allocates
// nothing.
func scanRequest[S ~string | ~[]byte](raw S, header func(line, colon, end int)) (requestLine, error) {
	var rl requestLine
	fields := [...]*span{&rl.method, &rl.path, &rl.version}
	eol := lineEnd(raw, 0)
	nf := 0
	for i := 0; i < eol; {
		if w := spaceWidth(raw, i); w > 0 {
			i += w
			continue
		}
		lo := i
		for i < eol && spaceWidth(raw, i) == 0 {
			i++
		}
		if nf < len(fields) {
			*fields[nf] = span{lo, i}
		}
		nf++
	}
	if nf != len(fields) {
		return rl, ErrBadRequest
	}
	if rl.head = equalAt(raw, rl.method, "HEAD"); !rl.head && !equalAt(raw, rl.method, "GET") {
		return rl, ErrBadMethod
	}
	for line := eol + 2; line < len(raw); {
		end := lineEnd(raw, line)
		if end == line {
			break
		}
		colon := line
		for colon < end && raw[colon] != ':' {
			colon++
		}
		if colon == end {
			return rl, ErrBadRequest
		}
		if header != nil {
			header(line, colon, end)
		}
		line = end + 2
	}
	return rl, nil
}

// indexPath is the document a request for "/" gets.
var indexPath = []byte("/index.html")

// route is lighttpd's one request body, run by both servers: it maps the
// raw request head in buf[:n] to a status, the path of the document to
// serve ("/" serves /index.html) and whether the method is HEAD, which
// gets the head without the body.  n is the receive count the untrusted
// side reported: one past the buffer is a bad request (400), as is a
// head the scanner rejects.  Whether the document exists (404) is each
// server's to find out from its own document store.
func route(buf []byte, n uint64) (status int, path []byte, head bool) {
	if n > uint64(len(buf)) {
		return 400, nil, false
	}
	rl, err := scanRequest(buf[:n], nil)
	if err != nil {
		return 400, nil, false
	}
	if path = buf[rl.path.lo:rl.path.hi]; string(path) == "/" {
		path = indexPath
	}
	return 200, path, rl.head
}

// ParseRequest parses an HTTP/1.0 request head.
func ParseRequest(raw string) (*HTTPRequest, error) {
	r := &HTTPRequest{Headers: make(map[string]string)}
	rl, err := scanRequest(raw, func(line, colon, end int) {
		r.Headers[strings.ToLower(strings.TrimSpace(raw[line:colon]))] = strings.TrimSpace(raw[colon+1 : end])
	})
	if err != nil {
		return nil, err
	}
	r.Method = raw[rl.method.lo:rl.method.hi]
	r.Path = raw[rl.path.lo:rl.path.hi]
	r.Version = raw[rl.version.lo:rl.version.hi]
	return r, nil
}

// ResponseHead builds the status line and headers for a response.
func ResponseHead(status int, contentLength int) string {
	return string(appendResponseHead(nil, status, contentLength))
}

// appendResponseHead appends the status line and headers to dst.
func appendResponseHead(dst []byte, status int, contentLength int) []byte {
	text := "OK"
	switch status {
	case 404:
		text = "Not Found"
	case 400:
		text = "Bad Request"
	}
	dst = append(dst, "HTTP/1.0 "...)
	dst = strconv.AppendInt(dst, int64(status), 10)
	dst = append(dst, ' ')
	dst = append(dst, text...)
	dst = append(dst, "\r\nServer: lighttpd-sim/1.4.41\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(contentLength), 10)
	return append(dst, "\r\nConnection: close\r\n\r\n"...)
}
