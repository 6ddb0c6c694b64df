package learn

import (
	"encoding/binary"
	"fmt"
	"math"

	"rushprobe/internal/stats"
)

// ProfileRecord bundles the three estimator states of one node —
// contact length, upload amount, rush-hour learner — behind a packed
// fixed-size binary encoding. The record is the unit the fleet's binary
// snapshot log persists per node: it stores raw float64 bits and
// squeezes the per-slot EWMA bookkeeping down to the lockstep-uniform
// common case, landing around 440 bytes for a 24-slot deployment. The
// fleet writes records with AppendRecord and reads them with
// RestoreRecord; ProfileRecord's own encoder is the reference the
// fuzzer checks that fast path against.
//
// The encoding is canonical and lossless: every state encodes to
// exactly one byte string, and decoding it back yields bit-identical
// estimator state (floats round-trip as raw bits, NaN included).
type ProfileRecord struct {
	Length  ContactLengthState
	Upload  UploadAmountState
	Learner RushHourState
}

// RecordVersion is the packed record's format version byte.
const RecordVersion = 1

// MaxRecordSlots bounds the slot count a record may claim, so a
// corrupted or hostile header cannot make the decoder allocate
// unboundedly.
const MaxRecordSlots = 4096

// maxRecordCount is the ceiling of every packed sample counter (they
// are stored as uint32, matching the EWMAVec count lanes).
const maxRecordCount = math.MaxUint32

// recordFlagUniform marks a record whose per-slot EWMA lanes are in
// lockstep with the epoch count: every lane's count equals Epochs and
// every lane is seeded iff Epochs > 0. A live learner always satisfies
// this (EndEpoch observes every lane, Relearn resets them together),
// so almost every record omits the per-slot count/seeded arrays.
const recordFlagUniform = 0x01

// recordScalarSize is the packed size of one scalar estimator state:
// prior f64 + value f64 + count u32 + seeded u8.
const recordScalarSize = 8 + 8 + 4 + 1

// recordHeaderSize is version + flags + slots u16 + rushSlots u16 +
// epochs u32.
const recordHeaderSize = 1 + 1 + 2 + 2 + 4

// RecordSize returns the encoded size of a record with the given slot
// count, in the uniform or explicit layout.
func RecordSize(slots int, uniform bool) int {
	n := recordHeaderSize + 2*recordScalarSize + slots*8 + slots*8
	if !uniform {
		n += slots*4 + (slots+7)/8
	}
	return n
}

// learnerUniform reports whether the per-slot lanes are in lockstep
// with the epoch count (see recordFlagUniform).
func learnerUniform(s *RushHourState) bool {
	for i := range s.Slots {
		if s.Slots[i].Count != s.Epochs || s.Slots[i].Seeded != (s.Epochs > 0) {
			return false
		}
	}
	return true
}

// AppendBinary appends the record's canonical encoding to dst and
// returns the extended slice. It validates the state first: slot counts
// within [1, MaxRecordSlots], matching array lengths, rushSlots within
// range, and every counter within the packed uint32 ceiling.
func (r *ProfileRecord) AppendBinary(dst []byte) ([]byte, error) {
	slots := len(r.Learner.Slots)
	if slots < 1 || slots > MaxRecordSlots {
		return nil, fmt.Errorf("learn: record slot count %d out of [1, %d]", slots, MaxRecordSlots)
	}
	if len(r.Learner.EpochCap) != slots {
		return nil, fmt.Errorf("learn: record has %d slot averages but %d accumulators", slots, len(r.Learner.EpochCap))
	}
	if r.Learner.RushSlots < 1 || r.Learner.RushSlots > slots {
		return nil, fmt.Errorf("learn: record rushSlots %d out of [1, %d]", r.Learner.RushSlots, slots)
	}
	if r.Learner.Epochs < 0 || r.Learner.Epochs > maxRecordCount {
		return nil, fmt.Errorf("learn: record epoch count %d out of [0, %d]", r.Learner.Epochs, uint64(maxRecordCount))
	}
	for i := range r.Learner.Slots {
		if c := r.Learner.Slots[i].Count; c < 0 || c > maxRecordCount {
			return nil, fmt.Errorf("learn: record slot %d count %d out of [0, %d]", i, c, uint64(maxRecordCount))
		}
		if r.Learner.Slots[i].Seeded && r.Learner.Slots[i].Count == 0 {
			return nil, fmt.Errorf("learn: record slot %d seeded with zero samples", i)
		}
	}
	uniform := learnerUniform(&r.Learner)
	var flags byte
	if uniform {
		flags |= recordFlagUniform
	}
	dst = append(dst, RecordVersion, flags)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(slots))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(r.Learner.RushSlots))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Learner.Epochs))
	dst, err := appendScalar(dst, r.Length.Prior, r.Length.EWMA)
	if err != nil {
		return nil, fmt.Errorf("learn: record length estimator: %w", err)
	}
	dst, err = appendScalar(dst, r.Upload.Prior, r.Upload.EWMA)
	if err != nil {
		return nil, fmt.Errorf("learn: record upload estimator: %w", err)
	}
	for _, c := range r.Learner.EpochCap {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c))
	}
	for i := range r.Learner.Slots {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Learner.Slots[i].Value))
	}
	if !uniform {
		for i := range r.Learner.Slots {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Learner.Slots[i].Count))
		}
		var b byte
		for i := range r.Learner.Slots {
			if r.Learner.Slots[i].Seeded {
				b |= 1 << (uint(i) % 8)
			}
			if i%8 == 7 {
				dst = append(dst, b)
				b = 0
			}
		}
		if slots%8 != 0 {
			dst = append(dst, b)
		}
	}
	return dst, nil
}

// AppendRecord appends the canonical record of live estimators: the
// bytes ProfileRecord{c.State(), u.State(), l.State()}.AppendBinary
// appends, read from the learner's lanes in place instead of through a
// RushHourState copy. A live learner always holds valid lanes, so only
// the record's range limits can fail.
func AppendRecord(dst []byte, c *ContactLength, u *UploadAmount, l *RushHourLearner) ([]byte, error) {
	slots := l.slots
	if slots < 1 || slots > MaxRecordSlots {
		return nil, fmt.Errorf("learn: record slot count %d out of [1, %d]", slots, MaxRecordSlots)
	}
	if l.epochs < 0 || l.epochs > maxRecordCount {
		return nil, fmt.Errorf("learn: record epoch count %d out of [0, %d]", l.epochs, uint64(maxRecordCount))
	}
	v := &l.perEpoch
	uniform := true
	for i := 0; i < slots && uniform; i++ {
		uniform = v.Count(i) == l.epochs && v.Seeded(i) == (l.epochs > 0)
	}
	var flags byte
	if uniform {
		flags |= recordFlagUniform
	}
	dst = append(dst, RecordVersion, flags)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(slots))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(l.rushSlots))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(l.epochs))
	dst, err := appendScalar(dst, c.prior, c.ewma.State())
	if err != nil {
		return nil, fmt.Errorf("learn: record length estimator: %w", err)
	}
	if dst, err = appendScalar(dst, u.prior, u.ewma.State()); err != nil {
		return nil, fmt.Errorf("learn: record upload estimator: %w", err)
	}
	for _, x := range l.epochCap {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	for i := 0; i < slots; i++ {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Value(i)))
	}
	if !uniform {
		for i := 0; i < slots; i++ {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v.Count(i)))
		}
		var b byte
		for i := 0; i < slots; i++ {
			if v.Seeded(i) {
				b |= 1 << (uint(i) % 8)
			}
			if i%8 == 7 {
				dst = append(dst, b)
				b = 0
			}
		}
		if slots%8 != 0 {
			dst = append(dst, b)
		}
	}
	return dst, nil
}

// MarshalBinary returns the record's canonical encoding.
func (r *ProfileRecord) MarshalBinary() ([]byte, error) {
	return r.AppendBinary(make([]byte, 0, RecordSize(len(r.Learner.Slots), learnerUniform(&r.Learner))))
}

func appendScalar(dst []byte, prior float64, e stats.EWMAState) ([]byte, error) {
	if e.Count < 0 || e.Count > maxRecordCount {
		return nil, fmt.Errorf("count %d out of [0, %d]", e.Count, uint64(maxRecordCount))
	}
	if e.Seeded && e.Count == 0 {
		return nil, fmt.Errorf("seeded with zero samples")
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(prior))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Value))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Count))
	if e.Seeded {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return dst, nil
}

// UnmarshalBinary decodes a canonical record; it accepts exactly what
// RestoreRecord accepts, with the same errors.
func (r *ProfileRecord) UnmarshalBinary(data []byte) error {
	length, upload, learner, err := RestoreRecord(data)
	if err != nil {
		return err
	}
	r.Length, r.Upload, r.Learner = length, upload, learner.State()
	return nil
}

// RestoreRecord decodes a canonical record straight into a live
// rush-hour learner, with no intermediate per-slot state slices; the
// scalar estimators come back as their (allocation-free) states. It
// rejects anything non-canonical: wrong version, unknown flags,
// out-of-range slot counts, truncated or oversized payloads, non-0/1
// seeded bytes, stray bits in the seeded bitset, and explicit per-slot
// arrays that should have used the uniform layout. Every bound is
// checked before the learner is allocated, so hostile input cannot make
// the decoder allocate more than O(len(data)).
func RestoreRecord(data []byte) (ContactLengthState, UploadAmountState, *RushHourLearner, error) {
	var length ContactLengthState
	var upload UploadAmountState
	if len(data) < recordHeaderSize {
		return length, upload, nil, fmt.Errorf("learn: record truncated at %d bytes (header is %d)", len(data), recordHeaderSize)
	}
	if data[0] != RecordVersion {
		return length, upload, nil, fmt.Errorf("learn: record version %d, want %d", data[0], RecordVersion)
	}
	flags := data[1]
	if flags&^byte(recordFlagUniform) != 0 {
		return length, upload, nil, fmt.Errorf("learn: record has unknown flag bits %#02x", flags)
	}
	uniform := flags&recordFlagUniform != 0
	slots := int(binary.LittleEndian.Uint16(data[2:4]))
	rushSlots := int(binary.LittleEndian.Uint16(data[4:6]))
	epochs := int(binary.LittleEndian.Uint32(data[6:10]))
	if slots < 1 || slots > MaxRecordSlots {
		return length, upload, nil, fmt.Errorf("learn: record slot count %d out of [1, %d]", slots, MaxRecordSlots)
	}
	if rushSlots < 1 || rushSlots > slots {
		return length, upload, nil, fmt.Errorf("learn: record rushSlots %d out of [1, %d]", rushSlots, slots)
	}
	if want := RecordSize(slots, uniform); len(data) != want {
		return length, upload, nil, fmt.Errorf("learn: record is %d bytes, want %d for %d slots", len(data), want, slots)
	}
	off := recordHeaderSize
	ls, err := decodeScalar(data[off:])
	if err != nil {
		return length, upload, nil, fmt.Errorf("learn: record length estimator: %w", err)
	}
	off += recordScalarSize
	us, err := decodeScalar(data[off:])
	if err != nil {
		return length, upload, nil, fmt.Errorf("learn: record upload estimator: %w", err)
	}
	off += recordScalarSize
	capAt, valueAt := off, off+slots*8
	countAt, seededAt := valueAt+slots*8, valueAt+slots*12
	// lane reads slot i's EWMA state: lockstep with the epoch count in
	// the uniform layout, explicit otherwise.
	lane := func(i int) stats.EWMAState {
		s := stats.EWMAState{Value: math.Float64frombits(binary.LittleEndian.Uint64(data[valueAt+8*i:])), Count: epochs, Seeded: epochs > 0}
		if !uniform {
			s.Count = int(binary.LittleEndian.Uint32(data[countAt+4*i:]))
			s.Seeded = data[seededAt+i/8]&(1<<(uint(i)%8)) != 0
		}
		return s
	}
	if !uniform {
		if slots%8 != 0 {
			if stray := data[len(data)-1] &^ (1<<(uint(slots)%8) - 1); stray != 0 {
				return length, upload, nil, fmt.Errorf("learn: record seeded bitset has stray bits %#02x past slot %d", stray, slots-1)
			}
		}
		canonical := false
		for i := 0; i < slots; i++ {
			s := lane(i)
			if s.Seeded && s.Count == 0 {
				return length, upload, nil, fmt.Errorf("learn: record slot %d seeded with zero samples", i)
			}
			canonical = canonical || s.Count != epochs || s.Seeded != (epochs > 0)
		}
		if !canonical {
			return length, upload, nil, fmt.Errorf("learn: record uses the explicit layout for uniform lanes (non-canonical)")
		}
	}
	l, err := NewRushHourLearner(slots, rushSlots)
	if err != nil {
		return length, upload, nil, err // unreachable: slots and rushSlots are range-checked above
	}
	l.epochs = epochs
	for i := range l.epochCap {
		l.epochCap[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[capAt+8*i:]))
		// Lanes are validated above; counts are uint32 by construction.
		if err := l.perEpoch.SetState(i, lane(i)); err != nil {
			return length, upload, nil, fmt.Errorf("learn: record slot %d: %w", i, err)
		}
	}
	length = ContactLengthState{Prior: ls.prior, EWMA: ls.state}
	upload = UploadAmountState{Prior: us.prior, EWMA: us.state}
	return length, upload, l, nil
}

type scalarRecord struct {
	prior float64
	state stats.EWMAState
}

func decodeScalar(data []byte) (scalarRecord, error) {
	var s scalarRecord
	s.prior = math.Float64frombits(binary.LittleEndian.Uint64(data[0:8]))
	s.state.Value = math.Float64frombits(binary.LittleEndian.Uint64(data[8:16]))
	s.state.Count = int(binary.LittleEndian.Uint32(data[16:20]))
	switch data[20] {
	case 0:
		s.state.Seeded = false
	case 1:
		s.state.Seeded = true
	default:
		return s, fmt.Errorf("seeded byte %#02x is not 0 or 1", data[20])
	}
	if s.state.Seeded && s.state.Count == 0 {
		return s, fmt.Errorf("seeded with zero samples")
	}
	return s, nil
}
