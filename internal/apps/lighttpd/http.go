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

// crlf reports whether a CRLF starts at raw[i].
func crlf(raw []byte, i int) bool {
	return raw[i] == '\r' && i+1 < len(raw) && raw[i+1] == '\n'
}

// scanRequest is the one HTTP/1.0 request-head grammar, shared by
// ParseRequest and route.  Lines end in CRLF and the head ends at the
// first empty line or the end of the input; the request line must hold
// exactly three fields separated by white space as strings.Fields
// defines it (ErrBadRequest), the first of them GET or HEAD
// (ErrBadMethod), and every header line a colon (ErrBadRequest) —
// checked, and reported, in that order.  header, when non-nil, receives
// each header line as raw[line:end] with its first colon at raw[colon].
// One pass over the bytes, by index, allocates nothing: a
// printable ASCII byte is a field byte at one comparison, only a byte at
// or below ' ' is tested for CRLF and ASCII white space, and only one at
// or above utf8.RuneSelf decodes a rune (a rune that CRLF or the end
// cuts off decodes as utf8.RuneError, which is not white space).
func scanRequest(raw []byte, header func(line, colon, end int)) (requestLine, error) {
	var rl requestLine
	fields := [...]*span{&rl.method, &rl.path, &rl.version}
	nf, lo, eol := 0, -1, 0 // lo is where the field being read began, -1 between fields
	for w := 1; eol < len(raw); eol += w {
		c, space := raw[eol], false
		if w = 1; c >= utf8.RuneSelf {
			var r rune
			r, w = utf8.DecodeRune(raw[eol:])
			space = unicode.IsSpace(r)
		} else if c <= ' ' {
			if crlf(raw, eol) {
				break
			}
			space = c == ' ' || '\t' <= c && c <= '\r'
		}
		if !space {
			if lo < 0 {
				lo = eol
			}
			for eol+w < len(raw) && ' ' < raw[eol+w] && raw[eol+w] < utf8.RuneSelf {
				w++ // the field's printable ASCII bytes that follow, in one tight loop
			}
		} else if lo >= 0 {
			if nf < len(fields) {
				*fields[nf] = span{lo, eol}
			}
			nf, lo = nf+1, -1
		}
	}
	if lo >= 0 { // the line's end closes a field too
		if nf < len(fields) {
			*fields[nf] = span{lo, eol}
		}
		nf++
	}
	if nf != len(fields) {
		return rl, ErrBadRequest
	}
	method := raw[rl.method.lo:rl.method.hi]
	if rl.head = string(method) == "HEAD"; !rl.head && string(method) != "GET" {
		return rl, ErrBadMethod
	}
	for line := eol + 2; line < len(raw); {
		colon, end := -1, line
		for ; end < len(raw) && !crlf(raw, end); end++ {
			if colon < 0 && raw[end] == ':' {
				colon = end
			}
		}
		if end == line {
			break
		}
		if colon < 0 {
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
	rl, err := scanRequest([]byte(raw), func(line, colon, end int) {
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
