package fleet

import (
	"unsafe"

	"rushprobe/internal/drift"
)

// monitor bundles the three detectors watching one node's per-epoch
// observation streams: the probed contact rate (contacts per epoch),
// the mean observed contact length, and the rush-mask capacity share
// (the per-slot capacity vector collapsed to the fraction landing in
// the learned mask). Rate catches a node going quiet or busy, and
// length a contact-process change; under a mask-censored plan
// (SNIP-RH probes only where it already believes the rush is) these
// carry the whole rotation signal, because the rate craters the epoch
// the rush moves out from under the mask. Share catches rotations
// that leave the probed totals untouched, which needs reports from
// outside the mask — all-day strategies, trace ingest — and
// harmlessly saturates at 1 under mask-censored probing. Access is
// guarded by the owning shard's lock.
type monitor struct {
	rate, length, share drift.Detector
}

// newMonitor builds a node's stream monitor, or nil when the fleet's
// drift detection is disabled. Config validation already proved the
// (kind, tuning) pair constructible, so failure here is a programming
// error.
func (f *Fleet) newMonitor() *monitor {
	if f.cfg.DriftDetector == "" {
		return nil
	}
	var d [3]drift.Detector
	if err := drift.NewSet(d[:], f.cfg.DriftDetector, f.cfg.DriftTuning); err != nil {
		panic(err)
	}
	return &monitor{rate: d[0], length: d[1], share: d[2]}
}

// reset returns every stream detector to warmup.
func (m *monitor) reset() {
	m.rate.Reset()
	m.length.Reset()
	m.share.Reset()
}

// detectorBytes approximates one stream detector's resident size: the
// concrete CUSUM / Page–Hinkley structs are a warmup baseline plus a
// handful of float64 registers, which 96 bytes covers with headroom.
// Kept as an estimate rather than a Detector interface method so
// alternative detectors don't have to implement accounting.
const detectorBytes = 96

// footprint estimates the monitor's resident bytes for the fleet's
// bytes/node gauge.
func (m *monitor) footprint() int {
	return int(unsafe.Sizeof(*m)) + 3*detectorBytes
}
