package fleet

import (
	"bytes"
	"testing"
)

// TestSnapshotDecodeReencodeIsByteIdentical pins bit-exact float
// persistence end to end: a real fleet's snapshot, restored and
// re-encoded, must reproduce the original bytes, which can only hold if
// every float survived the round trip exactly.
func TestSnapshotDecodeReencodeIsByteIdentical(t *testing.T) {
	f := newTestFleet(t, Config{})
	f.Observe(syntheticDays("n1", 4, 10, 2.0))
	f.Observe(syntheticDays("n2", 6, 14, 3.5))

	orig := binarySnapshotBytes(t, f)
	g := newTestFleet(t, Config{})
	if _, err := g.ReadBinarySnapshot(bytes.NewReader(orig)); err != nil {
		t.Fatal(err)
	}
	if again := binarySnapshotBytes(t, g); !bytes.Equal(again, orig) {
		t.Errorf("snapshot decode+re-encode is not byte-identical:\n got: %x\nwant: %x", again, orig)
	}
}
