package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"net/url"
	"strings"
	"testing"

	"rushprobe/internal/fleet"
)

// benchBody is an observe body of the shape load generators send: n
// observations from zero-padded node IDs, full-precision times and
// lengths, and an integral upload volume, marshalled by encoding/json.
func benchBody(tb testing.TB, n int) []byte {
	return escapedBody(tb, n, -1)
}

// escapedBody is benchBody with observation at (if any) from the node
// "a<b", which json.Marshal writes as "a\u003cb": the scanner reads
// the body up to that node and then hands it to encoding/json.
func escapedBody(tb testing.TB, n, at int) []byte {
	tb.Helper()
	r := rand.New(rand.NewPCG(1, 2))
	obs := make([]fleet.Observation, n)
	for i := range obs {
		length := 0.5 + 30*r.Float64()
		obs[i] = fleet.Observation{
			Node:     fmt.Sprintf("n%05d", r.IntN(4096)),
			Time:     86400 * 7 * r.Float64(),
			Length:   length,
			Uploaded: math.Round(length * 10000),
		}
	}
	if at >= 0 {
		obs[at].Node = "a<b"
	}
	body, err := json.Marshal(ObserveRequest{Observations: obs})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// reference decodes body the way the daemons did before DecodeObserve:
// one encoding/json Decoder over the whole body.
func reference(body []byte) ([]fleet.Observation, error) {
	var req observeRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req.Observations, err
}

// checkAgainstReference fails unless DecodeObserve agrees with the
// reference on the error text and on every node and every float bit.
func checkAgainstReference(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := reference(body)
	got, gotErr := DecodeObserve(body)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q: error %v, encoding/json says %v", body, gotErr, wantErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("body %q: error %q, encoding/json says %q", body, gotErr, wantErr)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("body %q: %d observations, encoding/json decodes %d", body, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Node != w.Node ||
			math.Float64bits(g.Time) != math.Float64bits(w.Time) ||
			math.Float64bits(g.Length) != math.Float64bits(w.Length) ||
			math.Float64bits(g.Uploaded) != math.Float64bits(w.Uploaded) {
			t.Fatalf("body %q: observation %d = %+v, encoding/json decodes %+v", body, i, g, w)
		}
	}
}

// observeCase is one observe body; fast says whether the one-pass
// scanner decodes it itself rather than handing it to encoding/json.
type observeCase struct {
	name string
	body string
	fast bool
}

// observeCases seed the fuzzer and run as a table under plain go test.
var observeCases = []observeCase{
	{"single", `{"observations":[{"node":"n00001","time":3600.25,"length":2.1,"uploaded":21000}]}`, true},
	{"empty array", `{"observations":[]}`, true},
	{"heavy whitespace", " \t\r\n{ \"observations\" :\n[ { \"node\"\t: \"n1\" , \"time\" : 1 , \"length\" : 2 , \"uploaded\" : 3 } ,\r\n{\"node\":\"n2\",\"time\":4,\"length\":5} ] }\n\n", true},
	{"missing uploaded", `{"observations":[{"node":"n1","time":10,"length":1.5}]}`, true},
	{"zero uploaded", `{"observations":[{"node":"n1","time":10,"length":1.5,"uploaded":0}]}`, true},
	{"negative zero", `{"observations":[{"node":"n1","time":-0,"length":-0.0,"uploaded":-0e5}]}`, true},
	{"exponents", `{"observations":[{"node":"n1","time":1E+2,"length":2.5e-3,"uploaded":-1}]}`, true},
	{"underflow", `{"observations":[{"node":"n1","time":1e-400,"length":4.9e-324}]}`, true},
	{"many digits", `{"observations":[{"node":"n1","time":0.1000000000000000055511151231257827021181583404541015625,"length":123456789012345678901234567890}]}`, true},
	{"empty node", `{"observations":[{"node":"","time":1,"length":1}]}`, true},
	{"printable node", `{"observations":[{"node":" bus/42%full ~","time":1,"length":1}]}`, true},
	{"overflow", `{"observations":[{"node":"n1","time":1e400,"length":1}]}`, false},
	{"leading zero", `{"observations":[{"node":"n1","time":01,"length":1}]}`, false},
	{"bare dot", `{"observations":[{"node":"n1","time":1.,"length":1}]}`, false},
	{"leading dot", `{"observations":[{"node":"n1","time":.5,"length":1}]}`, false},
	{"plus sign", `{"observations":[{"node":"n1","time":+1,"length":1}]}`, false},
	{"NaN", `{"observations":[{"node":"n1","time":NaN,"length":1}]}`, false},
	{"Inf", `{"observations":[{"node":"n1","time":1,"length":Inf}]}`, false},
	{"hex float", `{"observations":[{"node":"n1","time":0x1p3,"length":1}]}`, false},
	{"empty exponent", `{"observations":[{"node":"n1","time":1e,"length":1}]}`, false},
	{"minus alone", `{"observations":[{"node":"n1","time":-,"length":1}]}`, false},
	{"string number", `{"observations":[{"node":"n1","time":"1","length":1}]}`, false},
	{"escaped node", `{"observations":[{"node":"n\u0030","time":1,"length":1}]}`, false},
	{"marshalled <", `{"observations":[{"node":"a\u003cb","time":1,"length":1}]}`, false},
	{"escaped slash", `{"observations":[{"node":"a\/b","time":1,"length":1}]}`, false},
	{"non-ASCII node", `{"observations":[{"node":"bus-ö","time":1,"length":1}]}`, false},
	{"invalid UTF-8 node", "{\"observations\":[{\"node\":\"n\xff\xfe\",\"time\":1,\"length\":1}]}", false},
	{"control byte node", "{\"observations\":[{\"node\":\"n\x01\",\"time\":1,\"length\":1}]}", false},
	{"DEL node", "{\"observations\":[{\"node\":\"n\x7f\",\"time\":1,\"length\":1}]}", false},
	{"Node key", `{"observations":[{"Node":"n1","time":1,"length":1}]}`, false},
	{"TIME key", `{"observations":[{"node":"n1","TIME":1,"length":1}]}`, false},
	{"Observations key", `{"Observations":[{"node":"n1","time":1,"length":1}]}`, false},
	{"key order", `{"observations":[{"time":1,"node":"n1","length":1}]}`, false},
	{"unknown field", `{"observations":[{"node":"n1","time":1,"length":1,"rssi":-70}]}`, false},
	{"unknown top-level field", `{"observations":[],"batch":7}`, false},
	{"duplicate key", `{"observations":[{"node":"n1","time":1,"length":1,"uploaded":5,"uploaded":6}]}`, false},
	{"duplicate node", `{"observations":[{"node":"n1","node":"n2","time":1,"length":1}]}`, false},
	{"null uploaded", `{"observations":[{"node":"n1","time":1,"length":1,"uploaded":null}]}`, false},
	{"null node", `{"observations":[{"node":null,"time":1,"length":1}]}`, false},
	{"null element", `{"observations":[null]}`, false},
	{"null observations", `{"observations":null}`, false},
	{"no observations", `{}`, false},
	{"empty element", `{"observations":[{}]}`, false},
	{"trailing comma", `{"observations":[{"node":"n1","time":1,"length":1},]}`, false},
	{"trailing data", `{"observations":[{"node":"n1","time":1,"length":1}]} {"observations":[]}`, false},
	{"trailing garbage", `{"observations":[]}x`, false},
	{"empty body", ``, false},
	{"whitespace body", " \n", false},
	{"truncated", `{"observations":[{"node":"n1","time":1,"len`, false},
	{"truncated number", `{"observations":[{"node":"n1","time":12`, false},
	{"not an object", `[{"node":"n1","time":1,"length":1}]`, false},
	{"bad JSON", `{not json`, false},
}

func TestDecodeObserveMatchesEncodingJSON(t *testing.T) {
	bench := observeCase{"bench", string(benchBody(t, 256)), true}
	for _, tc := range append([]observeCase{bench}, observeCases...) {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstReference(t, []byte(tc.body))
			if _, fast := scanObserve([]byte(tc.body)); fast != tc.fast {
				t.Errorf("scanner took %q: %v, want %v", tc.body, fast, tc.fast)
			}
		})
	}
}

// FuzzDecodeObserve checks the one-pass scanner against encoding/json
// on arbitrary bytes: the two must agree on whether the body is an
// error (and on its text), and otherwise on every node and every float
// bit.
func FuzzDecodeObserve(f *testing.F) {
	f.Add(benchBody(f, 16))
	for _, tc := range observeCases {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstReference(t, body)
	})
}

// TestDecodeObserveAllocs pins the scanner's allocations on a
// canonical body of n observations: one node-ID string per observation
// plus the doublings of the growing slice and a handful more.
func TestDecodeObserveAllocs(t *testing.T) {
	const n = 256
	body := benchBody(t, n)
	obs, err := DecodeObserve(body)
	if err != nil || len(obs) != n {
		t.Fatalf("decode: %d observations, %v", len(obs), err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		_, err = DecodeObserve(body)
	})
	if err != nil {
		t.Fatal(err)
	}
	if limit := n + bits.Len(n) + 4; allocs > float64(limit) {
		t.Fatalf("DecodeObserve allocates %.0f times for %d observations, want <= %d", allocs, n, limit)
	}
}

// BenchmarkDecodeObserve decodes observe bodies with DecodeObserve and,
// as the reference, with the encoding/json Decoder the daemons used
// before it:
//
//   - scan and encoding_json: a 256-observation body of the load
//     generators' shape, all on the one-pass scanner;
//   - late_escape: the same body with its last node "a<b", which
//     json.Marshal escapes, so the scanner reads nearly all of it
//     before the fallback decodes it again;
//   - large_escape: 16384 observations with the first node escaped,
//     where B/op is the fallback's memory on a 1.3 MB body.
func BenchmarkDecodeObserve(b *testing.B) {
	bench := benchBody(b, 256)
	late := escapedBody(b, 256, 255)
	large := escapedBody(b, 16384, 0)
	run := func(name string, body []byte, decode func([]byte) ([]fleet.Observation, error)) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("scan", bench, DecodeObserve)
	run("encoding_json", bench, reference)
	run("late_escape", late, DecodeObserve)
	run("late_escape_encoding_json", late, reference)
	run("large_escape", large, DecodeObserve)
	run("large_escape_encoding_json", large, reference)
}

// nodePathCases seed FuzzNodePath with URL hazards: slashes, percent
// signs, dot segments, query and fragment characters, non-ASCII and
// invalid UTF-8.
var nodePathCases = []string{
	"n00001", "", ".", "..", "...", "bus/42%full", "a b+c", "tram#7?x=1",
	"%2F", "%", "%zz", "ö", "\xff", "/", "//", "a/../b", "./x",
}

func TestNodeParamRejectsMalformedEscape(t *testing.T) {
	for _, raw := range []string{"%", "%zz", "n%4", "ok%G0"} {
		if _, err := NodeParam("/v1/schedule/"+raw, "/v1/schedule/"); err == nil ||
			!strings.Contains(err.Error(), "malformed node ID") {
			t.Errorf("NodeParam(%q) error %v, want a malformed node ID error", raw, err)
		}
	}
}

// checkNodePath fails unless id survives escaping, URL parsing (what
// the client's request and the server's router both do) and unescaping
// unchanged; it also feeds id to NodeParam as a raw escaped path,
// which must fail exactly when id is not a valid escape.
func checkNodePath(t *testing.T, id string) {
	t.Helper()
	const prefix = "/v1/schedule/"
	p := NodePath(prefix, id)
	if got, err := NodeParam(p, prefix); err != nil || got != id {
		t.Fatalf("NodeParam(NodePath(%q)) = %q, %v", id, got, err)
	}
	u, err := url.Parse("http://shard.invalid" + p)
	if err != nil {
		t.Fatalf("NodePath(%q) = %q does not parse as a URL: %v", id, p, err)
	}
	if got, err := NodeParam(u.EscapedPath(), prefix); err != nil || got != id {
		t.Fatalf("NodeParam of parsed %q = %q, %v; want %q", p, got, err, id)
	}
	_, wantErr := url.PathUnescape(id)
	if _, err := NodeParam(prefix+id, prefix); (err != nil) != (wantErr != nil) {
		t.Fatalf("NodeParam(raw %q) error %v, url.PathUnescape says %v", id, err, wantErr)
	}
}

// FuzzNodePath checks that every string node ID round-trips through
// its escaped path, and that NodeParam rejects malformed escapes with
// an error, never a panic.
func FuzzNodePath(f *testing.F) {
	for _, id := range nodePathCases {
		f.Add(id)
	}
	f.Fuzz(checkNodePath)
}
