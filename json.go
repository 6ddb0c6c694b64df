package rushprobe

import (
	"encoding/json"

	"rushprobe/internal/stats"
)

// Rho is +Inf when nothing is probed — a legitimate outcome for a cold
// or out-of-budget node — but encoding/json refuses non-finite floats,
// which would turn that sentinel into a serving-layer error. Metrics
// and SimSummary therefore marshal Rho through stats.JSONFloat: finite
// values as numbers, non-finite ones as null (and null back to +Inf).

// metricsJSON mirrors Metrics with a null-safe Rho.
type metricsJSON struct {
	ZetaTarget float64
	Zeta       float64
	Phi        float64
	Rho        stats.JSONFloat
	TargetMet  bool
}

// MarshalJSON encodes the metrics, mapping a non-finite Rho to null.
func (m Metrics) MarshalJSON() ([]byte, error) {
	return json.Marshal(metricsJSON{
		ZetaTarget: m.ZetaTarget,
		Zeta:       m.Zeta,
		Phi:        m.Phi,
		Rho:        stats.JSONFloat(m.Rho),
		TargetMet:  m.TargetMet,
	})
}

// UnmarshalJSON decodes metrics written by MarshalJSON; a null Rho
// restores +Inf.
func (m *Metrics) UnmarshalJSON(data []byte) error {
	var j metricsJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*m = Metrics{
		ZetaTarget: j.ZetaTarget,
		Zeta:       j.Zeta,
		Phi:        j.Phi,
		Rho:        float64(j.Rho),
		TargetMet:  j.TargetMet,
	}
	return nil
}

// replicatedJSON mirrors ReplicatedSummary with a null-safe Rho.
type replicatedJSON struct {
	Strategy     string
	Replications int
	Zeta         float64
	Phi          float64
	Rho          stats.JSONFloat
	ZetaCI95     float64
	PhiCI95      float64
	Runs         []*SimSummary
}

// MarshalJSON encodes the aggregate, mapping a non-finite Rho to null.
func (r ReplicatedSummary) MarshalJSON() ([]byte, error) {
	return json.Marshal(replicatedJSON{
		Strategy:     r.Strategy,
		Replications: r.Replications,
		Zeta:         r.Zeta,
		Phi:          r.Phi,
		Rho:          stats.JSONFloat(r.Rho),
		ZetaCI95:     r.ZetaCI95,
		PhiCI95:      r.PhiCI95,
		Runs:         r.Runs,
	})
}

// UnmarshalJSON decodes an aggregate written by MarshalJSON; a null Rho
// restores +Inf.
func (r *ReplicatedSummary) UnmarshalJSON(data []byte) error {
	var j replicatedJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*r = ReplicatedSummary{
		Strategy:     j.Strategy,
		Replications: j.Replications,
		Zeta:         j.Zeta,
		Phi:          j.Phi,
		Rho:          float64(j.Rho),
		ZetaCI95:     j.ZetaCI95,
		PhiCI95:      j.PhiCI95,
		Runs:         j.Runs,
	}
	return nil
}

// simSummaryJSON mirrors SimSummary with a null-safe Rho.
type simSummaryJSON struct {
	Strategy        string
	Epochs          int
	Zeta            float64
	Phi             float64
	Rho             stats.JSONFloat
	UploadedBytes   float64
	MeanLatency     float64
	DroppedBytes    float64
	ContactsArrived float64
	ContactsProbed  float64
	ZetaCI95        float64
	PhiCI95         float64
	PerEpochZeta    []float64
}

// MarshalJSON encodes the summary, mapping a non-finite Rho to null.
func (s SimSummary) MarshalJSON() ([]byte, error) {
	return json.Marshal(simSummaryJSON{
		Strategy:        s.Strategy,
		Epochs:          s.Epochs,
		Zeta:            s.Zeta,
		Phi:             s.Phi,
		Rho:             stats.JSONFloat(s.Rho),
		UploadedBytes:   s.UploadedBytes,
		MeanLatency:     s.MeanLatency,
		DroppedBytes:    s.DroppedBytes,
		ContactsArrived: s.ContactsArrived,
		ContactsProbed:  s.ContactsProbed,
		ZetaCI95:        s.ZetaCI95,
		PhiCI95:         s.PhiCI95,
		PerEpochZeta:    s.PerEpochZeta,
	})
}

// UnmarshalJSON decodes a summary written by MarshalJSON; a null Rho
// restores +Inf.
func (s *SimSummary) UnmarshalJSON(data []byte) error {
	var j simSummaryJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*s = SimSummary{
		Strategy:        j.Strategy,
		Epochs:          j.Epochs,
		Zeta:            j.Zeta,
		Phi:             j.Phi,
		Rho:             float64(j.Rho),
		UploadedBytes:   j.UploadedBytes,
		MeanLatency:     j.MeanLatency,
		DroppedBytes:    j.DroppedBytes,
		ContactsArrived: j.ContactsArrived,
		ContactsProbed:  j.ContactsProbed,
		ZetaCI95:        j.ZetaCI95,
		PhiCI95:         j.PhiCI95,
		PerEpochZeta:    j.PerEpochZeta,
	}
	return nil
}
