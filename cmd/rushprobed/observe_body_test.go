package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rushprobe/internal/shardroute"
	"rushprobe/internal/wire"
)

// spaces is an endless reader of JSON whitespace, so an over-limit
// body costs the test nothing to build.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestObserveBadBodies pins the status and message of observe bodies
// that fail to decode, on the daemon and on the router, which share
// one body reader.
func TestObserveBadBodies(t *testing.T) {
	handlers := map[string]http.Handler{
		"daemon": newServer(newTestFleet(t)),
		"router": newRoutingServer(shardroute.NewRouter(0, nil), nil),
	}
	// The over-limit body is a complete JSON value padded past the limit
	// with whitespace.
	const head = `{"observations":[]}`
	cases := []struct {
		name   string
		body   string
		pad    int64 // spaces after body
		length int64 // declared Content-Length; -1 for none
		want   string
	}{
		{"over limit", head, maxObserveBody + 1 - int64(len(head)), maxObserveBody + 1, "decode: http: request body too large"},
		{"empty", "", 0, 0, "decode: EOF"},
		{"truncated", `{"observations":[{"node":"n1","time":1`, 0, -1, "decode: unexpected EOF"},
		{"bad JSON", `{not json`, 0, -1, "decode: invalid character 'n' looking for beginning of object key string"},
		{"out of range", `{"observations":[{"node":"n1","time":1e400,"length":1}]}`, 0, -1,
			"decode: json: cannot unmarshal number 1e400 into Go struct field observeRequest.observations.time of type float64"},
	}
	for name, h := range handlers {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				body := io.MultiReader(strings.NewReader(tc.body), io.LimitReader(spaces{}, tc.pad))
				req := httptest.NewRequest(http.MethodPost, "/v1/observe", body)
				req.ContentLength = tc.length
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusBadRequest {
					t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body)
				}
				var er wire.ErrorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
					t.Fatalf("error body %q is not JSON: %v", rec.Body, err)
				}
				if er.Error != tc.want {
					t.Fatalf("error %q, want %q", er.Error, tc.want)
				}
			})
		}
	}
}

// TestObserveBodyLimitWithoutContentLength drives the streaming limit
// with a small bound: a body that declares no length is read until it
// passes the limit, and fails even though a complete JSON value comes
// first; a body of exactly the limit decodes.
func TestObserveBodyLimitWithoutContentLength(t *testing.T) {
	const head = `{"observations":[]}`
	for _, tc := range []struct {
		size int64
		ok   bool
	}{{64, true}, {65, false}} {
		body := io.MultiReader(strings.NewReader(head), io.LimitReader(spaces{}, tc.size-int64(len(head))))
		req := httptest.NewRequest(http.MethodPost, "/v1/observe", body)
		req.ContentLength = -1
		rec := httptest.NewRecorder()
		_, ok := decodeObserveBody(rec, req, 64)
		if ok != tc.ok {
			t.Fatalf("%d-byte body under a 64-byte limit: ok = %v, want %v (%s)", tc.size, ok, tc.ok, rec.Body)
		}
		if !ok && (rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "request body too large")) {
			t.Fatalf("%d-byte body: HTTP %d %s, want 400 request body too large", tc.size, rec.Code, rec.Body)
		}
	}
}
