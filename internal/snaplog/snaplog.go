// Package snaplog implements the fleet's incremental binary snapshot
// log: a flat file of length-prefixed, CRC-framed records. A snapshot
// is a meta frame followed by one node frame per node; between full
// snapshots ("compactions") the daemon appends delta frames for dirty
// nodes only, so steady-state persistence cost scales with churn, not
// fleet size. Restore replays the log front to back with
// last-record-wins semantics.
//
// Frame layout (little-endian):
//
//	u32  payload length (type byte not included)
//	u8   frame type
//	[n]  payload
//	u32  CRC-32 (IEEE) over type byte || payload
//
// The reader distinguishes two failure modes. A clean EOF at a frame
// boundary ends the log normally. An EOF inside a frame is a torn tail
// — the classic crash-mid-append shape — and surfaces as a
// *TruncatedError so the caller can keep the valid prefix loudly. A
// CRC mismatch, unknown frame type, or oversized length is corruption
// and surfaces as a *CorruptError; that is never recoverable silently.
package snaplog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Frame types. Unknown types are corruption: the format has no
// skippable optional frames, so a stray type byte means the stream is
// not a snapshot log (or the log was damaged).
const (
	// FrameMeta carries fleet-wide configuration. A log must start
	// with one; a later meta frame marks the start of a compacted
	// snapshot generation.
	FrameMeta byte = 1
	// FrameNode carries one node's serialized state. Repeats of the
	// same node ID supersede earlier frames (last record wins).
	FrameNode byte = 2
)

// MaxPayload bounds a single frame's payload. Node frames hold one
// packed profile plus drift state and an ID — well under 64 KiB — so
// 1 MiB leaves generous headroom while keeping a corrupted length
// field from driving a huge allocation.
const MaxPayload = 1 << 20

// readChunk is the granularity at which payloads are read. The reader
// never allocates more than one chunk beyond verified input, so a
// hostile length field cannot balloon memory before the stream proves
// it actually has the bytes.
const readChunk = 64 * 1024

// TruncatedError reports a frame cut off by end-of-stream: a torn
// tail from a crash mid-append. Everything before Offset is intact.
type TruncatedError struct {
	Offset int64 // byte offset of the first incomplete frame
	Frames int   // complete frames before the tear
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("snaplog: log truncated mid-frame at byte %d (%d complete frames precede the tear)", e.Offset, e.Frames)
}

// CorruptError reports a structurally invalid frame: bad CRC, unknown
// type, or an impossible length. Unlike truncation this is not a
// crash artifact the caller can shrug off — the bytes on disk are
// wrong.
type CorruptError struct {
	Offset int64  // byte offset of the offending frame
	Reason string // human-readable diagnosis
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("snaplog: corrupt frame at byte %d: %s", e.Offset, e.Reason)
}

// Writer appends CRC-framed records to an underlying stream. It
// buffers internally; call Flush before fsync/rename.
type Writer struct {
	w   *bufio.Writer
	scr []byte
	err error
}

// NewWriter wraps w in a frame writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 256*1024)}
}

// WriteFrame appends one frame. The payload is copied before the call
// returns. Once a write fails, the writer is poisoned and every later
// call returns the first error.
func (w *Writer) WriteFrame(typ byte, payload []byte) error {
	if w.err != nil {
		return w.err
	}
	if len(payload) > MaxPayload {
		return fmt.Errorf("snaplog: frame payload %d bytes exceeds cap %d", len(payload), MaxPayload)
	}
	w.scr = w.scr[:0]
	w.scr = binary.LittleEndian.AppendUint32(w.scr, uint32(len(payload)))
	w.scr = append(w.scr, typ)
	w.scr = append(w.scr, payload...)
	// The CRC covers the type byte and the payload, which sit next to
	// each other in the scratch buffer (no per-frame hash allocation).
	crc := crc32.ChecksumIEEE(w.scr[4:])
	w.scr = binary.LittleEndian.AppendUint32(w.scr, crc)
	if _, err := w.w.Write(w.scr); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Flush pushes buffered frames to the underlying stream.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.w.Flush(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Frame is one decoded record.
type Frame struct {
	Type    byte
	Payload []byte
	Offset  int64 // byte offset of the frame's length prefix
}

// Reader decodes frames from a stream.
type Reader struct {
	r      *bufio.Reader
	off    int64
	frames int
	buf    []byte // NextReuse's payload buffer
	// hdr and tail receive a frame's header and CRC; as fields they
	// stay off the per-frame allocation path.
	hdr  [5]byte
	tail [4]byte
}

// NewReader wraps r in a frame reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 256*1024)}
}

// Next returns the next frame, io.EOF at a clean end of log,
// *TruncatedError on a torn tail, or *CorruptError on damage. The
// returned payload is owned by the caller (freshly allocated).
func (r *Reader) Next() (Frame, error) { return r.next(nil) }

// NextReuse is Next for a caller that is done with each payload before
// the following call: every payload lands in one buffer the reader
// keeps, instead of a fresh allocation per frame.
func (r *Reader) NextReuse() (Frame, error) {
	fr, err := r.next(r.buf[:0])
	if err == nil {
		r.buf = fr.Payload
	}
	return fr, err
}

// next decodes one frame, reading its payload into buf's backing array
// (a fresh one when buf is nil).
func (r *Reader) next(buf []byte) (Frame, error) {
	start := r.off
	hdr := r.hdr[:]
	if _, err := io.ReadFull(r.r, hdr[:1]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF // clean boundary
		}
		return Frame{}, r.fail(start, err)
	}
	if _, err := io.ReadFull(r.r, hdr[1:]); err != nil {
		return Frame{}, r.fail(start, err)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	typ := hdr[4]
	if n > MaxPayload {
		return Frame{}, &CorruptError{Offset: start, Reason: fmt.Sprintf("payload length %d exceeds cap %d", n, MaxPayload)}
	}
	if typ != FrameMeta && typ != FrameNode {
		return Frame{}, &CorruptError{Offset: start, Reason: fmt.Sprintf("unknown frame type %#02x", typ)}
	}
	// Read the payload in chunks so a lying length field can't force
	// a large allocation before the stream delivers the bytes.
	payload := buf
	if payload == nil {
		payload = make([]byte, 0, min(int(n), readChunk))
	}
	for len(payload) < int(n) {
		step := min(int(n)-len(payload), readChunk)
		was := len(payload)
		payload = slices.Grow(payload, step)[:was+step]
		if _, err := io.ReadFull(r.r, payload[was:]); err != nil {
			return Frame{}, r.fail(start, err)
		}
	}
	tail := r.tail[:]
	if _, err := io.ReadFull(r.r, tail); err != nil {
		return Frame{}, r.fail(start, err)
	}
	crc := crc32.Update(crc32.Update(0, crc32.IEEETable, hdr[4:]), crc32.IEEETable, payload)
	if got, want := binary.LittleEndian.Uint32(tail), crc; got != want {
		return Frame{}, &CorruptError{Offset: start, Reason: fmt.Sprintf("CRC mismatch: stored %#08x, computed %#08x", got, want)}
	}
	r.off += int64(9 + len(payload))
	r.frames++
	return Frame{Type: typ, Payload: payload, Offset: start}, nil
}

// fail classifies a read error mid-frame: end-of-stream becomes a
// torn-tail TruncatedError, anything else passes through.
func (r *Reader) fail(start int64, err error) error {
	if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
		return &TruncatedError{Offset: start, Frames: r.frames}
	}
	return err
}

// Frames returns the number of complete frames decoded so far.
func (r *Reader) Frames() int { return r.frames }

// Offset returns the byte offset just past the last complete frame.
func (r *Reader) Offset() int64 { return r.off }
