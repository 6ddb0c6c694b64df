// Package wire owns the /v1 API's wire format: every request and
// response body (api.go), the observe body's decoder, the escaping of
// node IDs into /v1/<verb>/{node} paths, and the request-ID header. The
// daemon in both of its modes, the router's HTTP backend and the load
// generator all speak it through this package, so each shape is
// declared once.
//
// # Observe bodies
//
// DecodeObserve decodes an ObserveRequest body. encoding/json is the
// reference: for every input, DecodeObserve returns what
// json.NewDecoder(bytes.NewReader(body)).Decode into an ObserveRequest
// returns, down to the error text and the bits of every float. Most of
// that cost is reflection and a second scan of each element (the
// custom fleet.Observation.UnmarshalJSON re-parses its own bytes), so
// DecodeObserve first runs a single-pass scanner over a canonical
// shape and hands anything else to encoding/json. json.Marshal emits
// that shape for an ObserveRequest whose node IDs are printable ASCII
// other than '"', '\', '<', '>' and '&'; it escapes those five, and
// writes non-ASCII IDs as raw UTF-8, and the scanner leaves both to
// encoding/json. The scanner accepts a body only when:
//
//   - tokens are separated by JSON whitespace (space, tab, CR, LF) only;
//   - the top level is an object whose one key is exactly
//     "observations", holding an array, possibly empty;
//   - each element is an object with exactly the keys "node", "time",
//     "length" and optionally "uploaded", in that order (an absent
//     "uploaded" is fleet.UploadedUnknown, as in UnmarshalJSON);
//   - the node string holds only bytes 0x20–0x7E other than '"' and
//     '\', so its bytes are its value with no unescaping or UTF-8
//     repair;
//   - each number matches the JSON number grammar
//     -?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)? and strconv.ParseFloat(s, 64)
//     parses it without a range error — the grammar check matters,
//     because ParseFloat alone also takes "+1", ".5", "1.", "Inf" and
//     hex floats, which JSON rejects;
//   - only whitespace follows the closing brace.
//
// Why the result is exact: on that subset encoding/json has nothing
// left to decide. Keys match exactly, so its case-insensitive matching,
// duplicate-key and unknown-field rules never apply; the strings need
// no unescaping; and a JSON number decodes into a float64 by the same
// strconv.ParseFloat(s, 64) call. Every input outside the subset —
// nulls, escapes, other key orders, trailing data, syntax errors — goes
// to encoding/json: json.Unmarshal, which decodes the body in place,
// and on any error the Decoder, which keeps today's tolerance of
// trailing data and today's error strings. FuzzDecodeObserve checks
// DecodeObserve against the Decoder on arbitrary bytes.
//
// The fallback costs what encoding/json costs plus the scan it
// abandons, which can run nearly to the end of the body:
// BenchmarkDecodeObserve's late_escape case, a 256-observation body
// whose last node is escaped, takes about 15% longer than the Decoder
// alone (1.27 against 1.10 ms on a 2-core Xeon) and allocates a
// quarter fewer bytes, because json.Unmarshal does not copy the body.
package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"rushprobe/internal/fleet"
)

// ObserveRequest is the POST /v1/observe body.
type ObserveRequest struct {
	Observations []fleet.Observation `json:"observations"`
}

// observeRequest is what the fallback decodes into. encoding/json names
// the Go type in its type errors ("Go struct field
// observeRequest.observations.time"), and this is the name the daemons
// have always answered with.
type observeRequest ObserveRequest

// ObserveResponse is the POST /v1/observe reply: how many observations
// the body carried and how many the fleet accepted.
type ObserveResponse struct {
	Received int `json:"received"`
	Accepted int `json:"accepted"`
}

// DecodeObserve decodes an ObserveRequest body and returns the
// observations. Its result and error are those of
// json.NewDecoder(bytes.NewReader(body)).Decode; see the package
// comment for the canonical subset it decodes in one pass.
func DecodeObserve(body []byte) ([]fleet.Observation, error) {
	if out, ok := scanObserve(body); ok {
		return out, nil
	}
	// A Decoder copies the body into a buffer of its own; Unmarshal reads
	// it in place. When Unmarshal succeeds, the body is one JSON value
	// between whitespace, which the Decoder decodes by the same code, so
	// the results agree. On any error (trailing data among them, which
	// the Decoder tolerates) the Decoder runs to give its result and its
	// error text.
	var req observeRequest
	if json.Unmarshal(body, &req) == nil {
		return req.Observations, nil
	}
	req = observeRequest{}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, err
	}
	return req.Observations, nil
}

// scanObserve decodes a canonical body in one pass. It reports false for
// any input outside the canonical subset.
func scanObserve(body []byte) ([]fleet.Observation, bool) {
	s := scanner{b: body}
	var out []fleet.Observation
	var ok bool
	if !s.lit(`{`) || !s.lit(`"observations"`) || !s.lit(`:`) || !s.lit(`[`) {
		return nil, false
	}
	if !s.lit(`]`) {
		for {
			var o fleet.Observation
			if !s.lit(`{`) || !s.lit(`"node"`) || !s.lit(`:`) {
				return nil, false
			}
			if o.Node, ok = s.str(); !ok {
				return nil, false
			}
			if !s.lit(`,`) || !s.lit(`"time"`) || !s.lit(`:`) {
				return nil, false
			}
			if o.Time, ok = s.num(); !ok {
				return nil, false
			}
			if !s.lit(`,`) || !s.lit(`"length"`) || !s.lit(`:`) {
				return nil, false
			}
			if o.Length, ok = s.num(); !ok {
				return nil, false
			}
			o.Uploaded = fleet.UploadedUnknown
			if s.lit(`,`) {
				if !s.lit(`"uploaded"`) || !s.lit(`:`) {
					return nil, false
				}
				if o.Uploaded, ok = s.num(); !ok {
					return nil, false
				}
			}
			if !s.lit(`}`) {
				return nil, false
			}
			out = append(out, o)
			if s.lit(`]`) {
				break
			}
			if !s.lit(`,`) {
				return nil, false
			}
		}
	}
	if !s.lit(`}`) {
		return nil, false
	}
	s.space()
	if s.i != len(s.b) {
		return nil, false
	}
	return out, true
}

// scanner walks a body left to right; i is the next unread byte.
type scanner struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// lit skips whitespace and consumes tok if the input continues with it.
func (s *scanner) lit(tok string) bool {
	s.space()
	if len(s.b)-s.i < len(tok) || string(s.b[s.i:s.i+len(tok)]) != tok {
		return false
	}
	s.i += len(tok)
	return true
}

// str consumes a string of printable ASCII with no escapes.
func (s *scanner) str() (string, bool) {
	s.space()
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return "", false
	}
	for j := s.i + 1; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := string(s.b[s.i+1 : j])
			s.i = j + 1
			return v, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return "", false
		}
	}
	return "", false
}

// num consumes a JSON number and parses it exactly as encoding/json
// does for a float64.
func (s *scanner) num() (float64, bool) {
	s.space()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return 0, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return 0, false
		}
		i = j
	}
	f, err := strconv.ParseFloat(string(b[s.i:i]), 64)
	if err != nil {
		return 0, false
	}
	s.i = i
	return f, true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// NodePath returns the request path that addresses node under prefix
// (such as "/v1/schedule/"). The ID is percent-escaped into a single
// path segment: url.PathEscape leaves dots alone, so the IDs "." and
// ".." get their dots escaped too — a server's path cleaner would
// otherwise rewrite them into a different route and a different
// identity.
func NodePath(prefix, node string) string {
	switch node {
	case ".":
		return prefix + "%2E"
	case "..":
		return prefix + "%2E%2E"
	}
	return prefix + url.PathEscape(node)
}

// NodeParam extracts the node ID from escapedPath, a request's escaped
// path (http.Request.URL.EscapedPath) that starts with prefix. It
// unescapes the remainder itself: the already-decoded URL.Path cannot
// tell a malformed escape from a literal '%'. A remainder that does not
// unescape is an error, which handlers turn into a 400.
func NodeParam(escapedPath, prefix string) (string, error) {
	raw := strings.TrimPrefix(escapedPath, prefix)
	node, err := url.PathUnescape(raw)
	if err != nil {
		return "", fmt.Errorf("malformed node ID %q: %v", raw, err)
	}
	return node, nil
}
