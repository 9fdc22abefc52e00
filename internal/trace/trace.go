// Package trace provides load profiles for the experiments: constant loads
// for the steady-state figures and time-varying profiles for the
// fluctuating-load evaluation (Fig. 13) and diurnal patterns.
package trace

import (
	"fmt"
	"math"
	"sort"
)

// Load yields an application's offered load, as a fraction of its max load,
// at a given simulation time.
type Load interface {
	// At returns the load fraction in [0,1] at time tMs milliseconds.
	At(tMs float64) float64
}

// Constant is a fixed load fraction.
type Constant float64

// At implements Load.
func (c Constant) At(float64) float64 { return float64(c) }

// Step is one segment of a piecewise-constant profile.
type Step struct {
	// StartMs is the time the segment begins.
	StartMs float64
	// Frac is the load fraction from StartMs until the next segment.
	Frac float64
}

// Steps is a piecewise-constant load profile.
type Steps []Step

// NewSteps validates and sorts a piecewise-constant profile.
func NewSteps(steps ...Step) (Steps, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("trace: empty step profile")
	}
	out := append(Steps(nil), steps...)
	sort.Slice(out, func(i, j int) bool { return out[i].StartMs < out[j].StartMs })
	for _, s := range out {
		if s.Frac < 0 || s.Frac > 1 {
			return nil, fmt.Errorf("trace: step load %.3g outside [0,1]", s.Frac)
		}
	}
	return out, nil
}

// At implements Load: the fraction of the last segment that has started
// (0 before the first segment).
func (s Steps) At(tMs float64) float64 {
	frac := 0.0
	for _, st := range s {
		if tMs >= st.StartMs {
			frac = st.Frac
		} else {
			break
		}
	}
	return frac
}

// Fig13Xapian returns the 250-second Xapian load fluctuation of the paper's
// Fig. 13(a): a low start, a climb through mid loads, the 70% surge at
// 100 s, the 90% peak at 120 s, then a descent back to low load.
func Fig13Xapian() Steps {
	s, err := NewSteps(
		Step{0, 0.10},
		Step{40_000, 0.30},
		Step{70_000, 0.50},
		Step{100_000, 0.70},
		Step{120_000, 0.90},
		Step{140_000, 0.60},
		Step{170_000, 0.40},
		Step{200_000, 0.20},
		Step{225_000, 0.10},
	)
	if err != nil {
		panic(err) // static profile; cannot fail
	}
	return s
}

// Diurnal models a day/night load swing as a raised sinusoid between lo and
// hi with the given period.
type Diurnal struct {
	// Lo and Hi bound the load fraction.
	Lo, Hi float64
	// PeriodMs is the cycle length.
	PeriodMs float64
	// PhaseMs shifts the peak.
	PhaseMs float64
}

// At implements Load.
func (d Diurnal) At(tMs float64) float64 {
	if d.PeriodMs <= 0 {
		return d.Lo
	}
	phase := 2 * math.Pi * (tMs + d.PhaseMs) / d.PeriodMs
	frac := d.Lo + (d.Hi-d.Lo)*(0.5+0.5*math.Sin(phase))
	if frac < 0 {
		return 0
	}
	if frac > 1 {
		return 1
	}
	return frac
}
