package learn

import (
	"bytes"
	"testing"
)

// FuzzProfileRecordRoundTrip feeds the packed-record decoder arbitrary
// bytes. The contract under fuzzing: the decoder never panics, never
// allocates beyond O(len(input)) (enforced structurally by the
// size-before-allocate checks, and caught here as OOM/timeouts), and
// every input it accepts is a canonical encoding — re-encoding the
// decoded state reproduces the input byte for byte.
func FuzzProfileRecordRoundTrip(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		rec := liveRecord(seed, 24, 4, int(seed))
		if enc, err := rec.MarshalBinary(); err == nil {
			f.Add(enc)
		}
	}
	// An explicit-layout record and some near-miss corruptions.
	rec := liveRecord(9, 8, 2, 3)
	rec.Learner.Slots[1].Count++
	if enc, err := rec.MarshalBinary(); err == nil {
		f.Add(enc)
		bad := bytes.Clone(enc)
		bad[len(bad)/2] ^= 0xff
		f.Add(bad)
	}
	f.Add([]byte{})
	f.Add([]byte{RecordVersion, 0, 0xff, 0xff, 1, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		var r ProfileRecord
		if err := r.UnmarshalBinary(data); err != nil {
			return
		}
		enc, err := r.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded record failed to re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("decode/encode is not canonical:\n in  %x\n out %x", data, enc)
		}
		// The live-estimator encoder writes what the state encoder
		// writes for the same estimators (restoring may normalize a
		// prior, so compare against the restored state, not data).
		length, upload, learner, err := RestoreRecord(data)
		if err != nil {
			t.Fatalf("RestoreRecord rejects what UnmarshalBinary accepts: %v", err)
		}
		c, err := RestoreContactLength(length)
		if err != nil {
			t.Fatal(err)
		}
		u, err := RestoreUploadAmount(upload)
		if err != nil {
			t.Fatal(err)
		}
		ref := ProfileRecord{Length: c.State(), Upload: u.State(), Learner: learner.State()}
		want, err := ref.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if live, err := AppendRecord(nil, &c, &u, learner); err != nil || !bytes.Equal(live, want) {
			t.Fatalf("AppendRecord differs from AppendBinary of the same state (%v):\n want %x\n got  %x", err, want, live)
		}
	})
}
