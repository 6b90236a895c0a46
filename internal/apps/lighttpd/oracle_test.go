package lighttpd

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// The oracle is the request path as it stood before responses went by
// reference: the string-splitting parser, a ResponseHead per request and
// the body copied behind it.  The scanner and the image set must answer
// every input with the same bytes.

// oracleParseRequest is the Cut/Split/Fields parser scanRequest replaced.
func oracleParseRequest(raw string) (*HTTPRequest, error) {
	head, _, _ := strings.Cut(raw, "\r\n\r\n")
	lines := strings.Split(head, "\r\n")
	parts := strings.Fields(lines[0])
	if len(parts) != 3 {
		return nil, ErrBadRequest
	}
	r := &HTTPRequest{Method: parts[0], Path: parts[1], Version: parts[2], Headers: make(map[string]string)}
	if r.Method != "GET" && r.Method != "HEAD" {
		return nil, ErrBadMethod
	}
	for _, line := range lines[1:] {
		if line == "" {
			break
		}
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			return nil, ErrBadRequest
		}
		r.Headers[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
	}
	return r, nil
}

// oracleServe answers raw from docroot the copying way.
func oracleServe(docroot map[string][]byte, raw string) []byte {
	status, body := 200, []byte(nil)
	req, err := oracleParseRequest(raw)
	if err == nil && req.Path == "/" {
		req.Path = "/index.html" // the one alias both servers route
	}
	if err != nil {
		status = 400
	} else if doc, ok := docroot[req.Path]; !ok {
		status = 404
	} else {
		body = doc
	}
	resp := []byte(ResponseHead(status, len(body)))
	if req != nil && req.Method == "HEAD" {
		return resp
	}
	return append(resp, body...)
}

func TestPoolServerMatchesOracle(t *testing.T) {
	docroot := map[string][]byte{"/index.html": indexPage()}
	s := NewPoolServer(1, testPoolOpts(1))
	s.Start()
	defer s.Stop()
	c := s.Conn(0)

	const line = "GET /index.html HTTP/1.0\r\nX: "
	fullBuffer := line + strings.Repeat("x", readCap-len(line)-len("\r\n\r\n")) + "\r\n\r\n"
	if len(fullBuffer) != readCap {
		t.Fatalf("the full-buffer request is %d bytes, want %d", len(fullBuffer), readCap)
	}
	corpus := []string{
		"",
		"\r\n\r\n",
		"NONSENSE\r\n\r\n",
		"GET /index.html\r\n\r\n",
		"GET /index.html HTTP/1.0 extra\r\n\r\n",
		"POST /index.html HTTP/1.0\r\n\r\n",
		"POST /index.html HTTP/1.0\r\nno colon\r\n\r\n",
		"get /index.html HTTP/1.0\r\n\r\n",
		"GET /index.html HTTP/1.0\r\nno colon\r\n\r\n",
		"GET /index.html HTTP/1.0\r\nHost: sim\r\n\r\nno colon past the blank line",
		"GET\t/index.html \t  HTTP/1.0\r\nHost:\tsim\r\n\r\n",
		"  GET /index.html HTTP/1.0  \r\n\r\n",
		"GET /index.html\u3000HTTP/1.0\r\n\r\n",
		"GET /index.html\r HTTP/1.0\r\n\r\n",
		"GET /index.html HTTP/1.0",
		"GET /index.html HTTP/1.0\r\n",
		"GET /index.html HTTP/1.0\r\nHost: sim",
		"GET /index.html HTTP/1.0\r\nHost: sim\r\n",
		"GET /index.html HTTP/1.0\r\nHost sim\r",
		fullBuffer,
	}
	for _, method := range []string{"GET", "HEAD"} {
		for _, path := range []string{"/index.html", "/missing", "/"} {
			corpus = append(corpus, method+" "+path+" HTTP/1.0\r\nHost: sim\r\n\r\n")
		}
	}
	for _, raw := range corpus {
		got, err := c.Do(raw)
		if err != nil {
			t.Fatalf("Do(%.60q): %v", raw, err)
		}
		if want := oracleServe(docroot, raw); !bytes.Equal(got, want) {
			t.Errorf("Do(%.60q) = %.80q (%d bytes), oracle %.80q (%d bytes)", raw, got, len(got), want, len(want))
		}
	}
}

// errClass names a scan outcome for comparison across parsers.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrBadRequest):
		return "bad request"
	case errors.Is(err, ErrBadMethod):
		return "bad method"
	}
	return err.Error()
}

// FuzzScanRequest holds the scanner — on a byte buffer, as the handler
// runs it, and through ParseRequest — to the oracle on arbitrary input:
// same error class, same method and path, same header map.
func FuzzScanRequest(f *testing.F) {
	for _, seed := range []string{
		getIndex,
		"HEAD /doc HTTP/1.0\r\n\r\n",
		"POST / HTTP/1.0\r\nbad\r\n\r\n",
		"GET / HTTP/1.0\r\nbadheader\r\n\r\n",
		"GET/\u3000HTTP/1.0x\r\nA:b:c\r\n\r\nrest",
		"GET / \xe2\x80 HTTP/1.0\r\n",
		"\r\nGET / HTTP/1.0\r\n\r\n",
		"garbage",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		want, wantErr := oracleParseRequest(raw)
		buf := []byte(raw)
		rl, err := scanRequest(buf, nil)
		if errClass(err) != errClass(wantErr) {
			t.Fatalf("scanRequest(%q) error = %v, oracle %v", raw, err, wantErr)
		}
		got, perr := ParseRequest(raw)
		if errClass(perr) != errClass(wantErr) {
			t.Fatalf("ParseRequest(%q) error = %v, oracle %v", raw, perr, wantErr)
		}
		if wantErr != nil {
			return
		}
		method, path := string(buf[rl.method.lo:rl.method.hi]), string(buf[rl.path.lo:rl.path.hi])
		if method != want.Method || path != want.Path || rl.head != (want.Method == "HEAD") {
			t.Fatalf("scanRequest(%q) = (%q, %q, head=%v), oracle (%q, %q)", raw, method, path, rl.head, want.Method, want.Path)
		}
		if got.Method != want.Method || got.Path != want.Path || got.Version != want.Version {
			t.Fatalf("ParseRequest(%q) = %+v, oracle %+v", raw, got, want)
		}
		if len(got.Headers) != len(want.Headers) {
			t.Fatalf("ParseRequest(%q) headers = %q, oracle %q", raw, got.Headers, want.Headers)
		}
		for k, v := range want.Headers {
			if gv, ok := got.Headers[k]; !ok || gv != v {
				t.Fatalf("ParseRequest(%q) headers = %q, oracle %q", raw, got.Headers, want.Headers)
			}
		}
	})
}
