package entropy

import (
	"errors"
	"fmt"
)

// The paper notes (end of Section II-B) that the E_S model "can be extended
// to involve different RI factors among the same type of applications".
// WeightedSystem is that extension: per-application importance weights
// within each class, reducing to the plain model when all weights are
// equal.

// Weighted pairs a sample with its relative importance within its class.
// Weights are normalised internally, so only ratios matter.
type Weighted[T any] struct {
	Sample T
	Weight float64
}

// ErrBadWeight is returned for non-positive weights.
var ErrBadWeight = errors.New("entropy: weights must be positive")

// WeightedELC generalises Eq. 5 to a weighted mean of the intolerable
// interference Q_i.
func WeightedELC(samples []Weighted[LCSample]) (float64, error) {
	if len(samples) == 0 {
		return 0, ErrNoSamples
	}
	var sum, wsum float64
	for _, s := range samples {
		if err := s.Sample.Validate(); err != nil {
			return 0, err
		}
		if s.Weight <= 0 {
			return 0, fmt.Errorf("%w: %s has weight %.3g", ErrBadWeight, s.Sample.labelled(), s.Weight)
		}
		sum += s.Weight * s.Sample.Intolerable()
		wsum += s.Weight
	}
	return sum / wsum, nil
}

// WeightedEBE generalises Eq. 6: one minus the weighted harmonic mean of
// IPC retention.
func WeightedEBE(samples []Weighted[BESample]) (float64, error) {
	if len(samples) == 0 {
		return 0, ErrNoSamples
	}
	var sum, wsum float64
	for _, s := range samples {
		if err := s.Sample.Validate(); err != nil {
			return 0, err
		}
		if s.Weight <= 0 {
			label := s.Sample.Name
			if label == "" {
				label = "BE app"
			}
			return 0, fmt.Errorf("%w: %s has weight %.3g", ErrBadWeight, label, s.Weight)
		}
		sum += s.Weight * s.Sample.Slowdown()
		wsum += s.Weight
	}
	return 1 - wsum/sum, nil
}

// WeightedSystem combines the weighted class entropies with the LC/BE
// relative importance, exactly as Eq. 7 does for the unweighted ones.
type WeightedSystem struct {
	// RI is the relative importance of the LC class, in [0,1].
	RI float64
}

// Compute returns (E_LC, E_BE, E_S) under per-application weights. Class
// degeneration follows the plain model: with one class absent, E_S is the
// other class's entropy.
func (sys WeightedSystem) Compute(lc []Weighted[LCSample], be []Weighted[BESample]) (elc, ebe, es float64, err error) {
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
		elc, err = WeightedELC(lc)
		if err != nil {
			return 0, 0, 0, err
		}
	}
	if len(be) == 0 {
		ri = 1
	} else {
		ebe, err = WeightedEBE(be)
		if err != nil {
			return 0, 0, 0, err
		}
	}
	return elc, ebe, ri*elc + (1-ri)*ebe, nil
}
