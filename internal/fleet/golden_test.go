package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"rushprobe/internal/drift"
	"rushprobe/internal/snaplog"
)

var update = flag.Bool("update", false, "rewrite testdata/binsnap.golden from the current codec")

const binsnapGolden = "testdata/binsnap.golden"

// TestBinarySnapshotGolden pins the binary snapshot codec byte for byte
// and error for error. The first part holds the full snapshot bytes of
// seeded fleets (CUSUM, Page-Hinkley and no detector; strategy
// overrides; nodes with drift events). The second part holds the
// outcome of restoring and importing hand-mutated logs: the error text,
// or the recovery counters, the re-encoded bytes and the node's
// Profile. Codec work must leave this file untouched; regenerate with
// -update only for an intended format change, and capture it on the
// commit before the change.
func TestBinarySnapshotGolden(t *testing.T) {
	var got bytes.Buffer
	got.WriteString("# binary snapshot codec golden: fleet snapshots as one hex frame per line, then mutated-log outcomes\n")
	for _, gf := range goldenFleets(t) {
		fmt.Fprintf(&got, "== fleet %s\n", gf.name)
		writeFrames(t, &got, gf.log)
	}
	for _, c := range goldenMutations(t) {
		for _, target := range c.targets {
			fmt.Fprintf(&got, "== mutation %s restore detector=%q\n", c.name, target)
			restoreOutcome(t, &got, target, c.node, c.log)
			fmt.Fprintf(&got, "== mutation %s import detector=%q\n", c.name, target)
			importOutcome(t, &got, target, c.node, c.log)
		}
	}
	truncations(t, &got)
	if *update {
		if err := os.MkdirAll(filepath.Dir(binsnapGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(binsnapGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(binsnapGolden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "== ") {
			section = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d (in %q) differs:\n got: %s\nwant: %s", binsnapGolden, i+1, section, gl[i], wl[i])
		}
	}
	t.Fatalf("%s has %d lines, the codec output %d", binsnapGolden, len(wl), len(gl))
}

type goldenFleet struct {
	name string
	log  []byte
}

// seededGoldenFleet builds the fleet behind one golden snapshot: 20
// randomized nodes (bootstrapping and graduated, strategy overrides,
// quiet-gap advances, stale reports) plus a node whose detector fired
// on a rush rotation and one caught mid-detection.
func seededGoldenFleet(t *testing.T, detector string) *Fleet {
	f := newTestFleet(t, Config{DriftDetector: detector})
	populateRandomFleet(t, f, 20, 1)
	f.Observe(patternDays("drifted", 0, 12, 6, 2, roadRush))
	f.Observe(patternDays("drifted", 12, 8, 6, 2, rotatedRush))
	f.Observe(patternDays("mid-detection", 0, 12, 6, 2, roadRush))
	f.Observe(patternDays("mid-detection", 12, 1, 6, 2, rotatedRush))
	return f
}

func goldenFleets(t *testing.T) []goldenFleet {
	cusum := seededGoldenFleet(t, drift.KindCUSUM)
	if p, _ := cusum.Profile("drifted"); p.DriftEvents < 1 {
		t.Fatal("golden cusum fleet: the drifted node never fired")
	}
	cusumLog := binarySnapshotBytes(t, cusum)
	// A detector-less fleet restoring drift history: frames carry the
	// events but no stream registers.
	plain := newTestFleet(t, Config{})
	if _, err := plain.ReadBinarySnapshot(bytes.NewReader(cusumLog)); err != nil {
		t.Fatal(err)
	}
	return []goldenFleet{
		{"cusum", cusumLog},
		{"page-hinkley", binarySnapshotBytes(t, seededGoldenFleet(t, drift.KindPageHinkley))},
		{"none", binarySnapshotBytes(t, seededGoldenFleet(t, ""))},
		{"none-restored-from-cusum", binarySnapshotBytes(t, plain)},
	}
}

func writeFrames(t *testing.T, w *bytes.Buffer, log []byte) {
	r := snaplog.NewReader(bytes.NewReader(log))
	for {
		fr, err := r.Next()
		if err != nil {
			if err != io.EOF {
				t.Fatalf("re-read golden log: %v", err)
			}
			return
		}
		fmt.Fprintf(w, "frame %d %s\n", fr.Type, hex.EncodeToString(fr.Payload))
	}
}

// nodeParts is a node frame payload split at the fields the mutations
// touch. The split follows the documented layout in binsnap.go, parsed
// here independently of the codec under test.
type nodeParts struct {
	id      string
	head    []byte // id through the stale counter
	flag    byte
	counter []byte // events, first, last, contacts, lenSum (flag 1 only)
	streams []streamParts
	record  []byte
	tail    []byte // bytes after the record (mutations only)
}

type streamParts struct {
	kind string
	regs []regPart
}

type regPart struct {
	key string
	val uint64
}

func splitNode(t *testing.T, p []byte) nodeParts {
	t.Helper()
	var n nodeParts
	off := 0
	idLen, k := binary.Uvarint(p)
	off += k
	n.id = string(p[off : off+int(idLen)])
	off += int(idLen)
	off += 1 + int(p[off]) // strategy
	for i := 0; i < 3; i++ {
		_, k := binary.Uvarint(p[off:])
		off += k
	}
	n.head = p[:off]
	n.flag = p[off]
	off++
	if n.flag == 1 {
		n.counter = p[off : off+36]
		off += 36
		count := int(p[off])
		off++
		for s := 0; s < count; s++ {
			var sp streamParts
			kl := int(p[off])
			sp.kind = string(p[off+1 : off+1+kl])
			off += 1 + kl
			regs := int(binary.LittleEndian.Uint16(p[off:]))
			off += 2
			for r := 0; r < regs; r++ {
				kl := int(p[off])
				key := string(p[off+1 : off+1+kl])
				off += 1 + kl
				sp.regs = append(sp.regs, regPart{key, binary.LittleEndian.Uint64(p[off:])})
				off += 8
			}
			n.streams = append(n.streams, sp)
		}
	}
	recLen := int(binary.LittleEndian.Uint32(p[off:]))
	off += 4
	n.record = p[off : off+recLen]
	if off+recLen != len(p) {
		t.Fatalf("node %s: %d bytes after the record", n.id, len(p)-off-recLen)
	}
	return n
}

// rehead rewrites the frame's ID and strategy override, keeping its
// counters.
func (n *nodeParts) rehead(id, strategy string) {
	idLen, k := binary.Uvarint(n.head)
	off := k + int(idLen)
	rest := n.head[off+1+int(n.head[off]):]
	h := binary.AppendUvarint(nil, uint64(len(id)))
	h = append(h, id...)
	h = append(h, byte(len(strategy)))
	h = append(h, strategy...)
	n.head = append(h, rest...)
	n.id = id
}

func (n nodeParts) encode() []byte {
	var b []byte
	b = append(b, n.head...)
	b = append(b, n.flag)
	if n.flag == 1 {
		b = append(b, n.counter...)
		b = append(b, byte(len(n.streams)))
		for _, s := range n.streams {
			b = append(b, byte(len(s.kind)))
			b = append(b, s.kind...)
			b = binary.LittleEndian.AppendUint16(b, uint16(len(s.regs)))
			for _, r := range s.regs {
				b = append(b, byte(len(r.key)))
				b = append(b, r.key...)
				b = binary.LittleEndian.AppendUint64(b, r.val)
			}
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(n.record)))
	b = append(b, n.record...)
	return append(b, n.tail...)
}

// clone deep-copies the mutable parts so one mutation never leaks into
// the next case.
func (n nodeParts) clone() nodeParts {
	c := n
	c.head = append([]byte(nil), n.head...)
	c.counter = append([]byte(nil), n.counter...)
	c.record = append([]byte(nil), n.record...)
	c.streams = nil
	for _, s := range n.streams {
		c.streams = append(c.streams, streamParts{s.kind, append([]regPart(nil), s.regs...)})
	}
	return c
}

func (s *streamParts) set(key string, v float64) {
	for i := range s.regs {
		if s.regs[i].key == key {
			s.regs[i].val = math.Float64bits(v)
			return
		}
	}
	panic("no register " + key)
}

func (s *streamParts) drop(key string) {
	for i := range s.regs {
		if s.regs[i].key == key {
			s.regs = append(s.regs[:i], s.regs[i+1:]...)
			return
		}
	}
	panic("no register " + key)
}

// nonUniform rewrites a uniform learner record into the explicit
// layout with one lane ahead of the epoch count — a valid record a
// live learner never writes.
func nonUniform(rec []byte) []byte {
	slots := int(binary.LittleEndian.Uint16(rec[2:4]))
	epochs := binary.LittleEndian.Uint32(rec[6:10])
	out := append([]byte(nil), rec...)
	out[1] = 0
	for i := 0; i < slots; i++ {
		c := epochs
		if i == 0 {
			c++
		}
		out = binary.LittleEndian.AppendUint32(out, c)
	}
	for i := 0; i < slots; i += 8 {
		var b byte
		for j := i; j < i+8 && j < slots; j++ {
			if epochs > 0 || j == 0 {
				b |= 1 << (uint(j) % 8)
			}
		}
		out = append(out, b)
	}
	return out
}

type goldenCase struct {
	name    string
	node    string   // the node whose outcome is reported
	targets []string // detector configurations restored into
	log     []byte
}

// logFrames re-frames a meta payload and node payloads as a log.
func logFrames(t *testing.T, meta []byte, nodes ...[]byte) []byte {
	var buf bytes.Buffer
	w := snaplog.NewWriter(&buf)
	if err := w.WriteFrame(snaplog.FrameMeta, meta); err != nil {
		t.Fatal(err)
	}
	for _, p := range nodes {
		if err := w.WriteFrame(snaplog.FrameNode, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// splitLog splits a single-generation log into its meta payload and its
// node frames, in log order.
func splitLog(t *testing.T, log []byte) (meta []byte, nodes []nodeParts) {
	t.Helper()
	r := snaplog.NewReader(bytes.NewReader(log))
	for {
		fr, err := r.Next()
		if err == io.EOF {
			return meta, nodes
		}
		if err != nil {
			t.Fatal(err)
		}
		if fr.Type == snaplog.FrameMeta {
			meta = fr.Payload
			continue
		}
		nodes = append(nodes, splitNode(t, fr.Payload))
	}
}

func goldenMutations(t *testing.T) []goldenCase {
	src := newTestFleet(t, Config{DriftDetector: drift.KindCUSUM})
	src.Observe(patternDays("drifted", 0, 12, 6, 2, roadRush))
	src.Observe(patternDays("drifted", 12, 8, 6, 2, rotatedRush))
	src.Observe(syntheticDays("plain", 4, 8, 2))
	src.Observe(syntheticDays("override", 2, 6, 3))
	if _, err := src.SetStrategy("override", MechanismRH); err != nil {
		t.Fatal(err)
	}
	base := binarySnapshotBytes(t, src)
	meta, nodes := splitLog(t, base)
	var order []string
	parts := map[string]nodeParts{}
	for _, n := range nodes {
		order = append(order, n.id)
		parts[n.id] = n
	}
	// with rebuilds the base log with the named nodes' frames replaced.
	with := func(repl map[string]nodeParts, extra ...[]byte) []byte {
		var frames [][]byte
		for _, id := range order {
			n := parts[id]
			if m, ok := repl[id]; ok {
				n = m
			}
			frames = append(frames, n.encode())
		}
		return logFrames(t, meta, append(frames, extra...)...)
	}
	mut := func(id string, fn func(*nodeParts)) map[string]nodeParts {
		n := parts[id].clone()
		fn(&n)
		return map[string]nodeParts{id: n}
	}
	rate := func(fn func(*streamParts)) func(*nodeParts) {
		return func(n *nodeParts) { fn(&n.streams[0]) }
	}
	all := []string{drift.KindCUSUM, drift.KindPageHinkley, ""}
	cusum := []string{drift.KindCUSUM}
	cases := []goldenCase{
		{"unmodified", "drifted", all, base},
		{"unknown-key-last", "drifted", cusum, with(mut("drifted", rate(func(s *streamParts) {
			s.regs = append(s.regs, regPart{"zzz", math.Float64bits(7)})
		})))},
		{"unknown-key-first", "drifted", cusum, with(mut("drifted", rate(func(s *streamParts) {
			s.regs = append([]regPart{{"aaa", math.Float64bits(7)}}, s.regs...)
		})))},
		{"unknown-key-between", "drifted", cusum, with(mut("drifted", rate(func(s *streamParts) {
			s.regs = append(s.regs[:2], append([]regPart{{"mid", math.Float64bits(7)}}, s.regs[2:]...)...)
		})))},
		{"other-kind-keys", "drifted", cusum, with(mut("drifted", rate(func(s *streamParts) {
			s.regs = append([]regPart{{"down", math.Float64bits(3)}, {"downMax", math.Float64bits(4)}}, s.regs...)
		})))},
		{"missing-pos", "drifted", cusum, with(mut("drifted", rate(func(s *streamParts) { s.drop("pos") })))},
		{"missing-n", "drifted", cusum, with(mut("drifted", rate(func(s *streamParts) { s.drop("n") })))},
		{"no-registers", "drifted", cusum, with(mut("drifted", rate(func(s *streamParts) { s.regs = nil })))},
		{"out-of-order", "drifted", all, with(mut("drifted", rate(func(s *streamParts) {
			s.regs[0], s.regs[1] = s.regs[1], s.regs[0]
		})))},
		{"duplicate-key", "drifted", all, with(mut("drifted", rate(func(s *streamParts) {
			s.regs = append(s.regs[:2], s.regs[1:]...)
		})))},
		{"negative-pos-clamped", "drifted", cusum, with(mut("drifted", rate(func(s *streamParts) { s.set("pos", -3) })))},
		{"nan-neg", "drifted", cusum, with(mut("drifted", rate(func(s *streamParts) { s.set("neg", math.NaN()) })))},
		{"negative-n", "drifted", all, with(mut("drifted", rate(func(s *streamParts) { s.set("n", -1) })))},
		{"fractional-n", "drifted", cusum, with(mut("drifted", rate(func(s *streamParts) { s.set("n", 2.5) })))},
		{"fractional-excl", "drifted", cusum, with(mut("drifted", func(n *nodeParts) { n.streams[2].set("excl", 0.5) }))},
		{"nan-mean", "drifted", cusum, with(mut("drifted", func(n *nodeParts) { n.streams[1].set("mean", math.NaN()) }))},
		{"negative-var", "drifted", cusum, with(mut("drifted", rate(func(s *streamParts) { s.set("var", -1) })))},
		{"inf-var", "drifted", cusum, with(mut("drifted", rate(func(s *streamParts) { s.set("var", math.Inf(1)) })))},
		{"kind-bogus", "drifted", all, with(mut("drifted", func(n *nodeParts) { n.streams[1].kind = "bogus" }))},
		{"kind-empty", "drifted", cusum, with(mut("drifted", func(n *nodeParts) { n.streams[2].kind = "" }))},
		{"kind-alias", "drifted", all, with(mut("drifted", func(n *nodeParts) { n.streams[0].kind = "ph" }))},
		{"bad-drift-flag", "drifted", cusum, with(mut("drifted", func(n *nodeParts) { n.flag = 2 }))},
		{"stream-count-1", "drifted", cusum, with(mut("drifted", func(n *nodeParts) { n.streams = n.streams[:1] }))},
		{"no-streams", "drifted", all, with(mut("drifted", func(n *nodeParts) { n.streams = nil }))},
		{"negative-lensum", "drifted", all, with(mut("drifted", func(n *nodeParts) {
			binary.LittleEndian.PutUint64(n.counter[28:], math.Float64bits(-1))
		}))},
		{"no-drift-block", "plain", all, with(mut("plain", func(n *nodeParts) { n.flag = 0 }))},
		{"trailing-bytes", "plain", cusum, with(mut("plain", func(n *nodeParts) { n.tail = []byte{0} }))},
		{"non-uniform-record", "plain", all, with(mut("plain", func(n *nodeParts) { n.record = nonUniform(n.record) }))},
		{"record-rush-slots", "plain", cusum, with(mut("plain", func(n *nodeParts) {
			binary.LittleEndian.PutUint16(n.record[4:], 2)
		}))},
		{"record-seeded-byte", "plain", cusum, with(mut("plain", func(n *nodeParts) { n.record[30] = 2 }))},
		{"unknown-strategy", "override", cusum, with(mut("override", func(n *nodeParts) { n.rehead(n.id, "EXT-SCHEME") }))},
		{"strategy-alias", "override", cusum, with(mut("override", func(n *nodeParts) { n.rehead(n.id, "rh") }))},
		{"empty-id", "plain", cusum, with(mut("plain", func(n *nodeParts) { n.rehead("", "") }))},
		{"superseded-bad-record", "drifted", cusum, with(mut("drifted", rate(func(s *streamParts) { s.set("n", -1) })),
			parts["drifted"].encode())},
		{"superseding-bad-record", "drifted", cusum, with(nil, func() []byte {
			n := parts["drifted"].clone()
			n.streams[0].set("n", -1)
			return n.encode()
		}())},
		{"bad-records-first-insertion-order", "plain", cusum, with(nil, func() []byte {
			n := parts["plain"].clone()
			n.streams[0].kind = "bogus"
			return n.encode()
		}(), func() []byte {
			n := parts["drifted"].clone()
			n.streams[0].set("n", -1)
			return n.encode()
		}())},
	}
	// A torn tail drops the last frame; an undecodable frame after a
	// build-invalid one is reported first.
	torn := with(nil)
	cases = append(cases,
		goldenCase{"torn-tail", "plain", cusum, torn[:len(torn)-3]},
		goldenCase{"frame-error-after-build-error", "plain", cusum, with(mut("drifted", rate(func(s *streamParts) { s.set("n", -1) })),
			func() []byte { n := parts["plain"].clone(); n.flag = 9; return n.encode() }())},
		goldenCase{"frame-error-before-second-generation", "plain", cusum, append(with(mut("plain", func(n *nodeParts) { n.flag = 9 })), base...)},
		goldenCase{"second-generation-supersedes", "drifted", cusum, append(with(mut("drifted", rate(func(s *streamParts) { s.set("n", -1) }))), base...)},
	)
	return cases
}

// truncations cuts a drift-carrying node frame payload at every byte
// up to the start of its learner record (re-framed with a valid CRC, so
// the frame decoder sees the short payload) and records each error.
func truncations(t *testing.T, w *bytes.Buffer) {
	src := newTestFleet(t, Config{DriftDetector: drift.KindPageHinkley})
	src.Observe(patternDays("drifted", 0, 12, 6, 2, roadRush))
	src.Observe(patternDays("drifted", 12, 8, 6, 2, rotatedRush))
	r := snaplog.NewReader(bytes.NewReader(binarySnapshotBytes(t, src)))
	meta, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	node, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	n := splitNode(t, node.Payload)
	end := len(node.Payload) - len(n.record) + 2
	fmt.Fprintf(w, "== truncations of a page-hinkley node frame (%d bytes)\n", len(node.Payload))
	for cut := 0; cut < end; cut++ {
		f := newTestFleet(t, Config{DriftDetector: drift.KindPageHinkley})
		_, err := f.ReadBinarySnapshot(bytes.NewReader(logFrames(t, meta.Payload, node.Payload[:cut])))
		fmt.Fprintf(w, "cut %d: %v\n", cut, err)
	}
}

// registered matches the strategy list in an unknown-strategy error,
// which depends on what other tests in the package registered.
var registered = regexp.MustCompile(` \(registered: \[[^\]]*\]\)`)

func writeError(w *bytes.Buffer, err error) {
	fmt.Fprintf(w, "error %s\n", registered.ReplaceAllString(err.Error(), ""))
}

// restoreOutcome restores log into a fresh fleet and reports what the
// codec made of it.
func restoreOutcome(t *testing.T, w *bytes.Buffer, detector, node string, log []byte) {
	f := newTestFleet(t, Config{DriftDetector: detector})
	info, err := f.ReadBinarySnapshot(bytes.NewReader(log))
	if err != nil {
		writeError(w, err)
		return
	}
	fmt.Fprintf(w, "ok nodes=%d frames=%d generations=%d truncated=%v tornOffset=%d dirty=%d\n",
		info.Nodes, info.Frames, info.Generations, info.Truncated, info.TornOffset, f.DirtyNodes())
	reencoded(t, w, f, node)
}

func importOutcome(t *testing.T, w *bytes.Buffer, detector, node string, log []byte) {
	f := newTestFleet(t, Config{DriftDetector: detector})
	n, err := f.ImportFrames(log)
	if err != nil {
		writeError(w, err)
		return
	}
	fmt.Fprintf(w, "ok imported=%d dirty=%d\n", n, f.DirtyNodes())
	reencoded(t, w, f, node)
}

func reencoded(t *testing.T, w *bytes.Buffer, f *Fleet, node string) {
	sum := sha256.Sum256(binarySnapshotBytes(t, f))
	fmt.Fprintf(w, "snapshot-sha256 %x\n", sum)
	if ids := f.NodeIDs(); len(ids) > 0 {
		fmt.Fprintf(w, "nodes %s\n", strings.Join(ids, ","))
	}
	export, err := f.ExportNodes([]string{node})
	if err != nil {
		fmt.Fprintf(w, "export error %s\n", err)
		return
	}
	writeFrames(t, w, export)
	prof, err := f.Profile(node)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(prof)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := json.Marshal(f.Stats())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(w, "profile %s\nstats %s\n", pj, sj)
}
