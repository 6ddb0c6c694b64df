package fleet

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"sort"
	"testing"

	"rushprobe/internal/drift"
	"rushprobe/internal/scenario"
	"rushprobe/internal/snaplog"
	"rushprobe/internal/strategy"
)

// fuzzFleetLog is the state every FuzzImportFrames input lands on: a
// small CUSUM fleet with a drifted node, a strategy override and a
// bootstrapping node, as a binary snapshot.
func fuzzFleetLog(tb testing.TB) (Config, []byte) {
	cfg := Config{Base: scenario.Roadside(), DriftDetector: drift.KindCUSUM}
	f, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	f.Observe(patternDays("drifted", 0, 12, 6, 2, roadRush))
	f.Observe(patternDays("drifted", 12, 8, 6, 2, rotatedRush))
	f.Observe(syntheticDays("plain", 4, 8, 2))
	f.Observe(syntheticDays("override", 2, 6, 3))
	f.Observe(syntheticDays("young", 1, 2, 1))
	if _, err := f.SetStrategy("override", strategy.NameRH); err != nil {
		tb.Fatal(err)
	}
	return cfg, binarySnapshotBytes(tb, f)
}

// importedIDs lists the distinct node IDs of an import payload that
// ImportFrames accepted.
func importedIDs(t *testing.T, data []byte) []string {
	r := snaplog.NewReader(bytes.NewReader(data))
	seen := map[string]bool{}
	var ids []string
	for {
		fr, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("accepted import does not re-read: %v", err)
		}
		if fr.Type != snaplog.FrameNode {
			continue
		}
		var n nodeRecord
		if err := decodeNodeFrame(fr.Payload, &n); err != nil {
			t.Fatalf("accepted import has an undecodable frame: %v", err)
		}
		if !seen[n.id] {
			seen[n.id] = true
			ids = append(ids, n.id)
		}
	}
	sort.Strings(ids)
	return ids
}

// repairCRCs returns data with the CRC of every complete snaplog frame
// recomputed, so mutated payloads reach the node-frame decoder instead
// of dying at the frame checksum.
func repairCRCs(data []byte) []byte {
	out := bytes.Clone(data)
	for off := 0; len(out)-off >= 9; {
		n := int(binary.LittleEndian.Uint32(out[off:]))
		if n > len(out)-off-9 {
			break
		}
		end := off + 5 + n
		binary.LittleEndian.PutUint32(out[end:], crc32.ChecksumIEEE(out[off+4:end]))
		off = end + 4
	}
	return out
}

// FuzzImportFrames feeds arbitrary bytes to ImportFrames on a seeded
// fleet, each input as given and with its frame CRCs repaired. The
// contract under fuzzing: it never panics; a rejected import leaves the
// fleet's snapshot bytes untouched; an accepted one imports every
// distinct node it carries, and those nodes re-export, import into a
// fresh fleet, and export again to the same bytes.
func FuzzImportFrames(f *testing.F) {
	cfg, base := fuzzFleetLog(f)
	src, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := src.ReadBinarySnapshot(bytes.NewReader(base)); err != nil {
		f.Fatal(err)
	}
	f.Add(base)
	for _, ids := range [][]string{{"drifted"}, {"plain", "override"}, {"young"}} {
		exp, err := src.ExportNodes(ids)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(exp)
		f.Add(exp[:len(exp)-5])
		flipped := bytes.Clone(exp)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
	}
	f.Add(base[:22]) // the meta frame alone
	f.Add([]byte{})

	// A rejected import must leave the fleet as it was, so the fleet is
	// rebuilt only after an accepted one (building a fleet costs
	// milliseconds; an import attempt, microseconds).
	var fl *Fleet
	var before []byte
	check := func(t *testing.T, data []byte) {
		if fl == nil {
			if fl, err = New(cfg); err != nil {
				t.Fatal(err)
			}
			if _, err := fl.ReadBinarySnapshot(bytes.NewReader(base)); err != nil {
				t.Fatal(err)
			}
			before = binarySnapshotBytes(t, fl)
		}
		n, err := fl.ImportFrames(data)
		if err != nil {
			if after := binarySnapshotBytes(t, fl); !bytes.Equal(after, before) {
				t.Fatalf("rejected import (%v) changed the fleet", err)
			}
			return
		}
		imported := fl
		fl = nil
		ids := importedIDs(t, data)
		if n != len(ids) {
			t.Fatalf("ImportFrames reported %d nodes, the payload carries %d", n, len(ids))
		}
		exp, err := imported.ExportNodes(ids)
		if err != nil {
			t.Fatalf("imported nodes do not export: %v", err)
		}
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m, err := fresh.ImportFrames(exp); err != nil || m != len(ids) {
			t.Fatalf("re-export does not import into a fresh fleet: %d nodes, %v", m, err)
		}
		again, err := fresh.ExportNodes(ids)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, exp) {
			t.Fatal("imported nodes export differently from a fresh fleet")
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		if fixed := repairCRCs(data); !bytes.Equal(fixed, data) {
			check(t, fixed)
		}
	})
}
