package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConstant(t *testing.T) {
	c := Constant(0.4)
	for _, tm := range []float64{0, 1, 1e9} {
		if got := c.At(tm); got != 0.4 {
			t.Errorf("At(%g) = %g", tm, got)
		}
	}
}

func TestStepsLookup(t *testing.T) {
	s, err := NewSteps(
		Step{StartMs: 10_000, Frac: 0.5},
		Step{StartMs: 0, Frac: 0.1}, // out of order on purpose
		Step{StartMs: 20_000, Frac: 0.9},
	)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		t, want float64
	}{
		{-5, 0}, {0, 0.1}, {9_999, 0.1}, {10_000, 0.5}, {15_000, 0.5}, {25_000, 0.9},
	}
	for _, c := range cases {
		if got := s.At(c.t); got != c.want {
			t.Errorf("At(%g) = %g, want %g", c.t, got, c.want)
		}
	}
}

func TestStepsValidation(t *testing.T) {
	for label, steps := range map[string][]Step{
		"empty profile": nil,
		"load > 1":      {{0, 1.5}},
		"negative load": {{0, -0.1}},
		"NaN load":      {{0, 0.2}, {1000, math.NaN()}},
		"NaN start":     {{0, 0.2}, {math.NaN(), 0.5}},
		"+Inf start":    {{math.Inf(1), 0.5}},
		"-Inf start":    {{math.Inf(-1), 0.5}},
	} {
		if _, err := NewSteps(steps...); err == nil {
			t.Errorf("%s accepted", label)
		}
	}
}

func TestFig13Profile(t *testing.T) {
	p := Fig13Xapian()
	// The paper's narrative anchors: low start, 70% surge at 100 s, 90%
	// peak at 120 s, descent afterwards.
	if got := p.At(0); got != 0.10 {
		t.Errorf("At(0) = %g", got)
	}
	if got := p.At(110_000); got != 0.70 {
		t.Errorf("At(110s) = %g, want 0.70", got)
	}
	if got := p.At(130_000); got != 0.90 {
		t.Errorf("At(130s) = %g, want 0.90", got)
	}
	if got := p.At(240_000); got != 0.10 {
		t.Errorf("At(240s) = %g, want 0.10", got)
	}
}

func TestStepsAlwaysInRange(t *testing.T) {
	p := Fig13Xapian()
	f := func(tRaw uint32) bool {
		v := p.At(float64(tRaw))
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiurnalBounds(t *testing.T) {
	d := Diurnal{Lo: 0.2, Hi: 0.8, PeriodMs: 86_400_000}
	f := func(tRaw uint32) bool {
		v := d.At(float64(tRaw))
		return v >= 0.2-1e-9 && v <= 0.8+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if got := (Diurnal{Lo: 0.3, Hi: 0.9}).At(123); got != 0.3 {
		t.Errorf("zero-period diurnal At = %g, want Lo", got)
	}
}

func TestDiurnalSwingsFullRange(t *testing.T) {
	d := Diurnal{Lo: 0.1, Hi: 0.9, PeriodMs: 1000}
	min, max := 1.0, 0.0
	for tm := 0.0; tm < 1000; tm += 10 {
		v := d.At(tm)
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min > 0.15 || max < 0.85 {
		t.Errorf("diurnal range [%g, %g] does not cover [0.1, 0.9]", min, max)
	}
}
