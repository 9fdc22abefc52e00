// Package entropy implements the system-entropy theory of the Ah-Q paper
// (Section II): the per-application interference quantities A, R, ReT and Q
// (Eqs. 1-4), the LC and BE entropies E_LC and E_BE (Eqs. 5-6), their
// combination into the system entropy E_S (Eq. 7), the yield metric, and
// the derived notion of resource equivalence (Section II-C).
//
// All quantities are dimensionless and lie in [0, 1]; 0 means no
// intolerable interference and values near 1 mean severe interference.
package entropy

import (
	"errors"
	"fmt"
	"math"
)

// DefaultRI is the relative importance of LC over BE applications used
// throughout the paper's evaluation.
const DefaultRI = 0.8

// LCSample is one latency-critical application's measurement triple.
type LCSample struct {
	// Name identifies the application (optional; used in reports).
	Name string
	// IdealMs is TL_i0: the p95 with ample resources and no co-runners.
	IdealMs float64
	// MeasuredMs is TL_i1: the p95 under collocation.
	MeasuredMs float64
	// TargetMs is M_i: the maximum tolerable p95.
	TargetMs float64
}

// Validate reports whether the sample is usable: the ideal latency must be
// positive and below the target (an application whose ideal latency already
// violates its own target is misconfigured, cf. A_i in [0,1]).
func (s LCSample) Validate() error {
	if s.IdealMs <= 0 {
		return fmt.Errorf("entropy: %s: ideal latency %.4g must be positive", s.labelled(), s.IdealMs)
	}
	if s.TargetMs <= s.IdealMs {
		return fmt.Errorf("entropy: %s: target %.4g must exceed ideal latency %.4g",
			s.labelled(), s.TargetMs, s.IdealMs)
	}
	if s.MeasuredMs <= 0 || math.IsNaN(s.MeasuredMs) {
		return fmt.Errorf("entropy: %s: measured latency %.4g must be positive", s.labelled(), s.MeasuredMs)
	}
	return nil
}

func (s LCSample) labelled() string {
	if s.Name == "" {
		return "LC app"
	}
	return s.Name
}

// Tolerance returns A_i = 1 - TL_i0/M_i (Eq. 1): how much interference the
// application can absorb before violating its target. Range [0, 1).
func (s LCSample) Tolerance() float64 {
	return 1 - s.IdealMs/s.TargetMs
}

// Interference returns R_i = 1 - TL_i0/TL_i1 (Eq. 2): the interference the
// application actually suffered. Clamped at 0 when the measured latency
// dips below the ideal (sampling noise).
func (s LCSample) Interference() float64 {
	if s.MeasuredMs <= s.IdealMs {
		return 0
	}
	return 1 - s.IdealMs/s.MeasuredMs
}

// RemainingTolerance returns ReT_i (Eq. 3): the headroom 1 - TL_i1/M_i left
// before the target is hit, or 0 once the suffered interference exceeds the
// tolerance. ARQ's victim/beneficiary selection keys off this value.
func (s LCSample) RemainingTolerance() float64 {
	if s.Tolerance() > s.Interference() {
		return 1 - s.MeasuredMs/s.TargetMs
	}
	return 0
}

// Intolerable returns Q_i (Eq. 4): the part of the interference the
// application could not absorb, 1 - M_i/TL_i1 when R_i > A_i and 0
// otherwise.
func (s LCSample) Intolerable() float64 {
	if s.Interference() > s.Tolerance() {
		return 1 - s.TargetMs/s.MeasuredMs
	}
	return 0
}

// Satisfied reports whether the application met its QoS target, i.e. its
// intolerable interference is zero.
func (s LCSample) Satisfied() bool { return s.Intolerable() == 0 }

// BESample is one best-effort application's measurement pair.
type BESample struct {
	// Name identifies the application (optional; used in reports).
	Name string
	// SoloIPC is the IPC running alone on the full node.
	SoloIPC float64
	// MeasuredIPC is the IPC under collocation.
	MeasuredIPC float64
}

// Validate reports whether the sample is usable.
func (s BESample) Validate() error {
	label := s.Name
	if label == "" {
		label = "BE app"
	}
	if s.SoloIPC <= 0 {
		return fmt.Errorf("entropy: %s: solo IPC %.4g must be positive", label, s.SoloIPC)
	}
	if s.MeasuredIPC <= 0 || math.IsNaN(s.MeasuredIPC) {
		return fmt.Errorf("entropy: %s: measured IPC %.4g must be positive", label, s.MeasuredIPC)
	}
	return nil
}

// Slowdown returns IPC_solo/IPC_real, clamped at 1 when the collocated IPC
// exceeds the solo IPC (noise).
func (s BESample) Slowdown() float64 {
	sl := s.SoloIPC / s.MeasuredIPC
	if sl < 1 {
		return 1
	}
	return sl
}

// ErrNoSamples is returned when an entropy is requested for an empty class.
var ErrNoSamples = errors.New("entropy: no samples")

// ELC returns the LC entropy (Eq. 5): the mean intolerable interference of
// the latency-critical applications.
func ELC(samples []LCSample) (float64, error) {
	if len(samples) == 0 {
		return 0, ErrNoSamples
	}
	sum := 0.0
	for _, s := range samples {
		if err := s.Validate(); err != nil {
			return 0, err
		}
		sum += s.Intolerable()
	}
	return sum / float64(len(samples)), nil
}

// EBE returns the BE entropy (Eq. 6): one minus the harmonic mean of the
// best-effort applications' IPC retention.
func EBE(samples []BESample) (float64, error) {
	if len(samples) == 0 {
		return 0, ErrNoSamples
	}
	sum := 0.0
	for _, s := range samples {
		if err := s.Validate(); err != nil {
			return 0, err
		}
		sum += s.Slowdown()
	}
	return 1 - float64(len(samples))/sum, nil
}

// Yield returns the ratio of satisfied LC applications — the paper's yield
// metric.
func Yield(samples []LCSample) (float64, error) {
	if len(samples) == 0 {
		return 0, ErrNoSamples
	}
	ok := 0
	for _, s := range samples {
		if err := s.Validate(); err != nil {
			return 0, err
		}
		if s.Satisfied() {
			ok++
		}
	}
	return float64(ok) / float64(len(samples)), nil
}

// System combines the class entropies per Eq. 7 with relative importance
// ri. The two degenerate scenarios of the paper fall out naturally: pass
// only LC samples (E_S = E_LC regardless of ri's BE weight… see SystemRI)
// or only BE samples.
type System struct {
	// RI is the relative importance of the LC class, in [0,1]; the paper
	// uses 0.8 and restricts to [0.5,1] when resources are scarce.
	RI float64
}

// Compute returns (E_LC, E_BE, E_S) for a mixed collocation. When one class
// is absent its entropy is 0 and the weighting collapses to the other class
// alone (RI is forced to 1 for LC-only and 0 for BE-only, Scenario 1 and 2
// of Section II-B).
func (sys System) Compute(lc []LCSample, be []BESample) (elc, ebe, es float64, err error) {
	if sys.RI < 0 || sys.RI > 1 {
		return 0, 0, 0, fmt.Errorf("entropy: relative importance %.3g outside [0,1]", sys.RI)
	}
	if len(lc) == 0 && len(be) == 0 {
		return 0, 0, 0, ErrNoSamples
	}
	ri := sys.RI
	if len(lc) == 0 {
		ri = 0
	} else {
		elc, err = ELC(lc)
		if err != nil {
			return 0, 0, 0, err
		}
	}
	if len(be) == 0 {
		ri = 1
	} else {
		ebe, err = EBE(be)
		if err != nil {
			return 0, 0, 0, err
		}
	}
	es = ri*elc + (1-ri)*ebe
	return elc, ebe, es, nil
}
