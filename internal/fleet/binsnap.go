package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"time"

	"rushprobe/internal/drift"
	"rushprobe/internal/learn"
	"rushprobe/internal/snaplog"
	"rushprobe/internal/telemetry"
)

// The fleet's binary snapshot rides on package snaplog's CRC-framed
// log. A full snapshot is one meta frame followed by one node frame
// per node; between full snapshots (compactions) the daemon appends
// node frames for dirty nodes only. Restore replays the log with
// last-record-wins semantics, so a delta frame supersedes the node's
// frame from the preceding full snapshot.
//
// Meta frame payload (little-endian):
//
//	u8  binary snapshot version
//	u64 base-scenario fingerprint
//	u16 slots per epoch
//	u16 rush slots
//
// Node frame payload (uv = unsigned LEB128 varint; the counters are
// tiny for almost every node, so fixed u64 lanes would double the
// per-node overhead):
//
//	uv  id length, id bytes
//	u8  strategy-override length, strategy bytes (canonical name)
//	uv  epoch
//	uv  observed, uv stale
//	u8  drift flag (0 = no drift state, 1 = drift state follows)
//	  u64 events, u64 first-drift epoch (int64 bits), u64 last-drift
//	  u32 epoch contacts, f64 epoch length sum
//	  u8  stream count (0, or 3 for rate/length/share), per stream:
//	    u8 kind length, kind bytes
//	    u16 register count, per register (sorted by key):
//	      u8 key length, key bytes, f64 value
//	u32 record length, packed learn.ProfileRecord bytes
//
// Every variable-length field is length-checked before it is sliced,
// so a corrupted payload yields an error, never a panic or an
// unbounded allocation (snaplog already caps the payload itself).

// binSnapshotVersion is bumped on incompatible node-payload changes.
const binSnapshotVersion = 1

// binMetaSize is the meta frame's fixed payload size.
const binMetaSize = 1 + 8 + 2 + 2

// RecoveryInfo reports how a binary snapshot restore went: how much
// log was replayed and whether a torn tail was dropped. A torn tail is
// the expected crash artifact — the caller should log it loudly but
// may continue with the recovered prefix.
type RecoveryInfo struct {
	// Nodes is the number of distinct nodes restored.
	Nodes int
	// Frames is the number of complete frames replayed.
	Frames int
	// Generations counts meta frames seen; each one starts a full
	// snapshot that supersedes everything before it.
	Generations int
	// Truncated reports a torn tail: the log ended mid-frame and the
	// incomplete frame was dropped. TornOffset is the byte offset of
	// the tear (everything before it was replayed).
	Truncated  bool
	TornOffset int64
	// Decode is the time spent reading, CRC-checking and decoding the
	// log's frames; Admit the time spent validating the decoded nodes
	// and swapping them into the shards.
	Decode, Admit time.Duration
}

// appendMetaFrame encodes the fleet's meta payload.
func (f *Fleet) appendMetaFrame(dst []byte) []byte {
	dst = append(dst, binSnapshotVersion)
	dst = binary.LittleEndian.AppendUint64(dst, f.baseFP)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.cfg.Base.Slots)))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(f.cfg.RushSlots))
	return dst
}

// decodeMetaFrame validates a meta payload against this fleet's
// configuration.
func (f *Fleet) decodeMetaFrame(p []byte) error {
	if len(p) != binMetaSize {
		return fmt.Errorf("meta frame is %d bytes, want %d", len(p), binMetaSize)
	}
	if v := p[0]; v != binSnapshotVersion {
		return fmt.Errorf("binary snapshot version %d, want %d", v, binSnapshotVersion)
	}
	if fp := binary.LittleEndian.Uint64(p[1:9]); fp != f.baseFP {
		return fmt.Errorf("snapshot base fingerprint %016x does not match configured base %016x", fp, f.baseFP)
	}
	if slots := int(binary.LittleEndian.Uint16(p[9:11])); slots != len(f.cfg.Base.Slots) {
		return fmt.Errorf("snapshot has %d slots per epoch, base scenario has %d", slots, len(f.cfg.Base.Slots))
	}
	if rush := int(binary.LittleEndian.Uint16(p[11:13])); rush != f.cfg.RushSlots {
		return fmt.Errorf("snapshot ranks %d rush slots, fleet is configured for %d", rush, f.cfg.RushSlots)
	}
	return nil
}

// appendProfileFrame appends p's node frame payload to dst, written
// straight from the live profile: no drift-register maps,
// no learner state copy, and no allocation once dst has grown to a
// frame's size. Callers hold p's shard lock.
func appendProfileFrame(dst []byte, p *profile) ([]byte, error) {
	if len(p.id) > math.MaxUint16 {
		return nil, fmt.Errorf("node ID is %d bytes, the binary snapshot caps IDs at %d", len(p.id), math.MaxUint16)
	}
	if len(p.strategy) > math.MaxUint8 {
		return nil, fmt.Errorf("strategy name is %d bytes, cap is %d", len(p.strategy), math.MaxUint8)
	}
	if p.epoch < 0 || p.observed < 0 || p.stale < 0 {
		return nil, fmt.Errorf("negative counters (epoch %d, observed %d, stale %d)", p.epoch, p.observed, p.stale)
	}
	dst = binary.AppendUvarint(dst, uint64(len(p.id)))
	dst = append(dst, p.id...)
	dst = append(dst, byte(len(p.strategy)))
	dst = append(dst, p.strategy...)
	dst = binary.AppendUvarint(dst, uint64(p.epoch))
	dst = binary.AppendUvarint(dst, uint64(p.observed))
	dst = binary.AppendUvarint(dst, uint64(p.stale))
	dst, err := appendDriftBlob(dst, p)
	if err != nil {
		return nil, err
	}
	lenAt := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // patched below
	if dst, err = learn.AppendRecord(dst, &p.length, &p.upload, p.learner); err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst, nil
}

// appendDriftBlob writes a profile's drift state: nothing but the 0
// flag when there is nothing to persist (detection disabled and no
// recorded events, which keeps pre-drift snapshots byte-identical),
// else the counters and, when the fleet runs a detector, the three
// streams' registers.
func appendDriftBlob(dst []byte, p *profile) ([]byte, error) {
	if p.mon == nil && p.driftEvents == 0 {
		return append(dst, 0), nil
	}
	if p.driftEvents < 0 {
		return nil, fmt.Errorf("negative drift event count %d", p.driftEvents)
	}
	var first, last, contacts int
	var lenSum float64
	if p.driftEvents > 0 {
		first, last = p.firstDrift, p.lastDrift
	}
	if p.mon != nil {
		contacts, lenSum = p.epochContacts, p.epochLenSum
	}
	if contacts < 0 || contacts > math.MaxUint32 {
		return nil, fmt.Errorf("drift contact accumulator %d out of [0, %d]", contacts, uint64(math.MaxUint32))
	}
	dst = append(dst, 1)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.driftEvents))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(first)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(last)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(contacts))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(lenSum))
	if p.mon == nil {
		return append(dst, 0), nil
	}
	dst = append(dst, 3)
	for _, d := range [3]drift.Detector{p.mon.rate, p.mon.length, p.mon.share} {
		r := d.Registers()
		dst = r.AppendBinary(dst)
	}
	return dst, nil
}

// nodeDecoder walks a node frame payload with bounds checks.
type nodeDecoder struct {
	p   []byte
	off int
}

func (d *nodeDecoder) need(n int) error {
	if len(d.p)-d.off < n {
		return fmt.Errorf("node frame truncated at byte %d (need %d more)", d.off, n)
	}
	return nil
}

func (d *nodeDecoder) u8() (byte, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.p[d.off]
	d.off++
	return v, nil
}

func (d *nodeDecoder) u32() (uint32, error) {
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(d.p[d.off:])
	d.off += 4
	return v, nil
}

func (d *nodeDecoder) u64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(d.p[d.off:])
	d.off += 8
	return v, nil
}

func (d *nodeDecoder) bytes(n int) ([]byte, error) {
	if err := d.need(n); err != nil {
		return nil, err
	}
	b := d.p[d.off : d.off+n]
	d.off += n
	return b, nil
}

// counter decodes a u64 that must fit a non-negative int64.
func (d *nodeDecoder) counter(name string) (int64, error) {
	v, err := d.u64()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt64 {
		return 0, fmt.Errorf("%s %d overflows int64", name, v)
	}
	return int64(v), nil
}

// uvarint decodes an unsigned LEB128 varint with bounds checks.
func (d *nodeDecoder) uvarint(name string) (uint64, error) {
	v, n := binary.Uvarint(d.p[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%s: truncated or overlong varint at byte %d", name, d.off)
	}
	d.off += n
	return v, nil
}

// varintCounter decodes a varint that must fit a non-negative int64.
func (d *nodeDecoder) varintCounter(name string) (int64, error) {
	v, err := d.uvarint(name)
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt64 {
		return 0, fmt.Errorf("%s %d overflows int64", name, v)
	}
	return int64(v), nil
}

// decodeNodeFrame parses one node frame payload into n. Frame-level
// validation happens here; checks against the fleet's configuration
// are the admission gate's (buildProfile).
func decodeNodeFrame(p []byte, n *nodeRecord) error {
	d := &nodeDecoder{p: p}
	idLen, err := d.uvarint("id length")
	if err != nil {
		return err
	}
	if idLen > math.MaxUint16 {
		return fmt.Errorf("node ID length %d exceeds the %d cap", idLen, math.MaxUint16)
	}
	id, err := d.bytes(int(idLen))
	if err != nil {
		return err
	}
	n.id = string(id)
	stratLen, err := d.u8()
	if err != nil {
		return err
	}
	strat, err := d.bytes(int(stratLen))
	if err != nil {
		return err
	}
	n.strategy = string(strat)
	epoch, err := d.varintCounter("epoch")
	if err != nil {
		return err
	}
	if epoch > math.MaxInt32 {
		return fmt.Errorf("epoch %d exceeds the int32 range the clock supports", epoch)
	}
	n.epoch = int(epoch)
	if n.observed, err = d.varintCounter("observed count"); err != nil {
		return err
	}
	if n.stale, err = d.varintCounter("stale count"); err != nil {
		return err
	}
	if err := decodeDriftBlob(d, &n.drift); err != nil {
		return err
	}
	recLen, err := d.u32()
	if err != nil {
		return err
	}
	rec, err := d.bytes(int(recLen))
	if err != nil {
		return err
	}
	if n.length, n.upload, n.learner, err = learn.RestoreRecord(rec); err != nil {
		return err
	}
	if d.off != len(d.p) {
		return fmt.Errorf("node frame has %d trailing bytes", len(d.p)-d.off)
	}
	return nil
}

func decodeDriftBlob(d *nodeDecoder, ds *driftRecord) error {
	flag, err := d.u8()
	if err != nil {
		return err
	}
	switch flag {
	case 0:
		return nil
	case 1:
	default:
		return fmt.Errorf("drift flag %#02x is not 0 or 1", flag)
	}
	ds.present = true
	if ds.events, err = d.counter("drift event count"); err != nil {
		return err
	}
	first, err := d.u64()
	if err != nil {
		return err
	}
	last, err := d.u64()
	if err != nil {
		return err
	}
	ds.first, ds.last = int(int64(first)), int(int64(last))
	contacts, err := d.u32()
	if err != nil {
		return err
	}
	ds.contacts = int(contacts)
	lenSum, err := d.u64()
	if err != nil {
		return err
	}
	ds.lenSum = math.Float64frombits(lenSum)
	streams, err := d.u8()
	if err != nil {
		return err
	}
	switch streams {
	case 0:
		return nil
	case 3:
	default:
		return fmt.Errorf("drift stream count %d is not 0 or 3", streams)
	}
	for i := range ds.regs {
		n, err := drift.DecodeRegisters(d.p[d.off:], &ds.regs[i])
		if err != nil {
			if short, ok := err.(*drift.ShortError); ok {
				return fmt.Errorf("node frame truncated at byte %d (need %d more)", d.off+short.Offset, short.Need)
			}
			return err
		}
		d.off += n
		ds.streams[i] = true
	}
	return nil
}

// nodeRecords decodes a log's node frames one at a time and passes each
// straight through the admission gate, keeping only the outcome — the
// profile, or the gate's error — with last-record-wins semantics: a
// repeated ID overwrites its outcome in place, so the kept outcomes stay
// in first-insertion order. A gate error counts only if no later record
// supersedes it, and only once every frame has decoded, exactly as if
// the whole log were decoded before any node was built.
type nodeRecords struct {
	rec   nodeRecord // the frame being decoded
	kept  []gateOutcome
	index map[string]int
}

type gateOutcome struct {
	p   *profile
	err error
}

// decode parses one node frame payload into the current record.
func (rs *nodeRecords) decode(payload []byte) (*nodeRecord, error) {
	rs.rec = nodeRecord{}
	return &rs.rec, decodeNodeFrame(payload, &rs.rec)
}

// keep builds the current record and keeps the outcome.
func (rs *nodeRecords) keep(f *Fleet) {
	p, err := f.buildProfile(&rs.rec)
	out := gateOutcome{p, err}
	if i, seen := rs.index[rs.rec.id]; seen {
		rs.kept[i] = out
		return
	}
	if rs.index == nil {
		rs.index = make(map[string]int)
	}
	rs.index[rs.rec.id] = len(rs.kept)
	rs.kept = append(rs.kept, out)
}

// reset drops every kept node: a new generation supersedes them.
func (rs *nodeRecords) reset() {
	rs.kept = rs.kept[:0]
	clear(rs.index)
}

// profiles returns the kept profiles in first-insertion order, or the
// first kept gate error in that order.
func (rs *nodeRecords) profiles() ([]*profile, error) {
	ps := make([]*profile, len(rs.kept))
	for i, out := range rs.kept {
		if out.err != nil {
			return nil, out.err
		}
		ps[i] = out.p
	}
	return ps, nil
}

// WriteBinarySnapshot streams a full binary snapshot of the fleet —
// one meta frame, then every node, shard by shard in sorted-ID order —
// and marks every written node clean for the delta log. It never
// materializes the whole fleet: peak extra memory
// is one shard's ID list plus a single frame buffer, which is what
// keeps a million-node save flat. On error the output is unusable and
// some dirty flags may already be cleared; the caller must discard the
// partial file and retry a full snapshot (the daemon's compaction loop
// does exactly that).
func (f *Fleet) WriteBinarySnapshot(w io.Writer) error {
	tel := f.cfg.Telemetry
	var start time.Time
	if tel != nil {
		start = time.Now()
	}
	nodes, err := f.writeBinarySnapshot(w)
	if tel != nil {
		d := time.Since(start)
		tel.SnapshotSave.Observe(d)
		tel.Traces.Record(telemetry.Span{
			Stage:    "snapshot-save",
			Detail:   "binary",
			Shard:    -1,
			Count:    nodes,
			Start:    start,
			Duration: d,
		})
	}
	return err
}

func (f *Fleet) writeBinarySnapshot(w io.Writer) (int, error) {
	sw := snaplog.NewWriter(w)
	if err := sw.WriteFrame(snaplog.FrameMeta, f.appendMetaFrame(nil)); err != nil {
		return 0, fmt.Errorf("fleet: write snapshot meta: %w", err)
	}
	total, err := f.streamFrames(sw, false)
	if err != nil {
		return total, err
	}
	if err := sw.Flush(); err != nil {
		return total, fmt.Errorf("fleet: flush snapshot: %w", err)
	}
	return total, nil
}

// streamFrames writes a node frame for every node (dirtyOnly false) or
// every dirty node, shard by shard with IDs sorted within each shard,
// and marks the written nodes clean.
func (f *Fleet) streamFrames(sw *snaplog.Writer, dirtyOnly bool) (int, error) {
	// One buffer sized for the largest shard, so the whole pass
	// allocates the same whatever the node count. It holds each shard's
	// profiles sorted by ID (profiles carry their ID), so writing them
	// needs no second map lookup per node.
	largest := 0
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		largest = max(largest, len(sh.nodes))
		sh.mu.Unlock()
	}
	ps := make([]*profile, 0, largest)
	var frame []byte
	total := 0
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		ps = ps[:0]
		for _, p := range sh.nodes {
			if p.dirty || !dirtyOnly {
				ps = append(ps, p)
			}
		}
		slices.SortFunc(ps, byID)
		for _, p := range ps {
			var err error
			if frame, err = appendProfileFrame(frame[:0], p); err != nil {
				sh.mu.Unlock()
				return total, fmt.Errorf("fleet: node %s: %w", p.id, err)
			}
			//rushlint:allow locksafe — streaming snapshot: one shard locked at a time while its frames stream out, trading lock hold time for bounded memory (buffering a shard's frames would reintroduce the 1M-node snapshot spike)
			if err := sw.WriteFrame(snaplog.FrameNode, frame); err != nil {
				sh.mu.Unlock()
				return total, fmt.Errorf("fleet: write node %s: %w", p.id, err)
			}
			p.dirty = false
			total++
		}
		sh.mu.Unlock()
	}
	return total, nil
}

// byID orders profiles by node ID.
func byID(a, b *profile) int { return strings.Compare(a.id, b.id) }

// AppendBinaryDelta writes node frames for every dirty node (no meta
// frame) and marks them clean, returning how many were written. The
// caller appends the result to a log that already starts with a full
// snapshot. Determinism matches WriteBinarySnapshot: shards in order,
// IDs sorted within each shard.
func (f *Fleet) AppendBinaryDelta(w io.Writer) (int, error) {
	sw := snaplog.NewWriter(w)
	total, err := f.streamFrames(sw, true)
	if err != nil {
		return total, err
	}
	if err := sw.Flush(); err != nil {
		return total, fmt.Errorf("fleet: flush delta: %w", err)
	}
	return total, nil
}

// DirtyNodes counts nodes changed since the last binary snapshot or
// delta append — the gauge the daemon's delta loop and compaction
// trigger read. O(nodes), one shard lock at a time.
func (f *Fleet) DirtyNodes() int {
	total := 0
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		for _, p := range sh.nodes {
			if p.dirty {
				total++
			}
		}
		sh.mu.Unlock()
	}
	return total
}

// ReadBinarySnapshot restores the fleet from a binary snapshot log.
// The log must begin with a meta frame matching this fleet's
// configuration; node frames replay with last-record-wins, and a later
// meta frame starts a new generation that supersedes everything before
// it. A torn tail (crash mid-append) is dropped and reported through
// RecoveryInfo — the caller decides how loudly to surface it — while
// corruption (CRC mismatch, bad framing, undecodable node) fails hard
// without touching the fleet's current state. An empty log is an
// error, never a silent fresh start.
func (f *Fleet) ReadBinarySnapshot(r io.Reader) (*RecoveryInfo, error) {
	tel := f.cfg.Telemetry
	var start time.Time
	if tel != nil {
		start = time.Now()
	}
	info, err := f.readBinarySnapshot(r)
	if tel != nil {
		d := time.Since(start)
		tel.SnapshotRestore.Observe(d)
		n := 0
		if info != nil {
			n = info.Nodes
		}
		tel.Traces.Record(telemetry.Span{
			Stage:    "snapshot-restore",
			Detail:   "binary",
			Shard:    -1,
			Count:    n,
			Start:    start,
			Duration: d,
		})
	}
	return info, err
}

func (f *Fleet) readBinarySnapshot(r io.Reader) (*RecoveryInfo, error) {
	start := time.Now()
	sr := snaplog.NewReader(r)
	info := &RecoveryInfo{}
	var rs nodeRecords
	for {
		fr, err := sr.NextReuse()
		if err == io.EOF {
			break
		}
		if err != nil {
			var te *snaplog.TruncatedError
			if errors.As(err, &te) {
				info.Truncated = true
				info.TornOffset = te.Offset
				break
			}
			return nil, fmt.Errorf("fleet: read snapshot log: %w", err)
		}
		switch fr.Type {
		case snaplog.FrameMeta:
			if err := f.decodeMetaFrame(fr.Payload); err != nil {
				return nil, fmt.Errorf("fleet: snapshot meta at byte %d: %w", fr.Offset, err)
			}
			// A new generation: everything before this full snapshot is
			// superseded.
			rs.reset()
			info.Generations++
		case snaplog.FrameNode:
			if info.Generations == 0 {
				return nil, fmt.Errorf("fleet: snapshot log starts with a node frame at byte %d, want a meta frame", fr.Offset)
			}
			n, err := rs.decode(fr.Payload)
			if err != nil {
				return nil, fmt.Errorf("fleet: node frame at byte %d: %w", fr.Offset, err)
			}
			if n.id == "" {
				return nil, fmt.Errorf("fleet: node frame at byte %d has an empty ID", fr.Offset)
			}
			rs.keep(f)
		}
		info.Frames = sr.Frames()
	}
	if info.Generations == 0 {
		if info.Truncated {
			return nil, fmt.Errorf("fleet: snapshot log torn at byte %d before a complete meta frame; nothing recoverable", info.TornOffset)
		}
		return nil, errors.New("fleet: snapshot log is empty")
	}
	info.Decode = time.Since(start)
	ps, err := rs.profiles()
	if err != nil {
		return nil, err
	}
	// The log is the source of truth these nodes came from: they are
	// admitted clean, until the next mutation.
	if err := f.replaceProfiles(ps); err != nil {
		return nil, err
	}
	info.Nodes = len(ps)
	info.Admit = time.Since(start) - info.Decode
	return info, nil
}
