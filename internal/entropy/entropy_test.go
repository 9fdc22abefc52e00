package entropy

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// table2Row6Cores is one verbatim row set from the paper's Table II
// (Unmanaged, 6 cores): the per-application quantities and entropies our
// expressions must reproduce from the raw latencies.
func table2Row6Cores() []LCSample {
	return []LCSample{
		{Name: "xapian", IdealMs: 2.77, MeasuredMs: 23.99, TargetMs: 4.22},
		{Name: "moses", IdealMs: 2.80, MeasuredMs: 16.54, TargetMs: 10.53},
		{Name: "img-dnn", IdealMs: 1.41, MeasuredMs: 14.35, TargetMs: 3.98},
	}
}

func TestTableIIQuantities(t *testing.T) {
	rows := table2Row6Cores()
	// Paper values: A = {0.34, 0.73, 0.65}, R = {0.88, 0.83, 0.90},
	// Q = {0.82, 0.36, 0.72}, all ReT = 0, E_LC = 0.64.
	wantA := []float64{0.34, 0.73, 0.65}
	wantR := []float64{0.88, 0.83, 0.90}
	wantQ := []float64{0.82, 0.36, 0.72}
	for i, s := range rows {
		if got := s.Tolerance(); math.Abs(got-wantA[i]) > 0.01 {
			t.Errorf("%s: A = %.3f, want %.2f", s.Name, got, wantA[i])
		}
		if got := s.Interference(); math.Abs(got-wantR[i]) > 0.01 {
			t.Errorf("%s: R = %.3f, want %.2f", s.Name, got, wantR[i])
		}
		if got := s.Intolerable(); math.Abs(got-wantQ[i]) > 0.01 {
			t.Errorf("%s: Q = %.3f, want %.2f", s.Name, got, wantQ[i])
		}
		if got := s.RemainingTolerance(); got != 0 {
			t.Errorf("%s: ReT = %.3f, want 0", s.Name, got)
		}
		if s.Satisfied() {
			t.Errorf("%s reported satisfied while violating", s.Name)
		}
	}
	elc, err := ELC(rows)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(elc-0.64) > 0.01 {
		t.Errorf("E_LC = %.3f, want 0.64 (Table II)", elc)
	}
}

func TestTableII8CoresSatisfied(t *testing.T) {
	// At 8 cores the paper's latencies all sit below target: E_LC = 0.
	rows := []LCSample{
		{Name: "xapian", IdealMs: 2.77, MeasuredMs: 4.18, TargetMs: 4.22},
		{Name: "moses", IdealMs: 2.80, MeasuredMs: 4.43, TargetMs: 10.53},
		{Name: "img-dnn", IdealMs: 1.41, MeasuredMs: 3.53, TargetMs: 3.98},
	}
	elc, err := ELC(rows)
	if err != nil {
		t.Fatal(err)
	}
	if elc != 0 {
		t.Errorf("E_LC = %g, want 0", elc)
	}
	wantReT := []float64{0.01, 0.58, 0.11}
	for i, s := range rows {
		if got := s.RemainingTolerance(); math.Abs(got-wantReT[i]) > 0.01 {
			t.Errorf("%s: ReT = %.3f, want %.2f", s.Name, got, wantReT[i])
		}
	}
	y, err := Yield(rows)
	if err != nil {
		t.Fatal(err)
	}
	if y != 1 {
		t.Errorf("yield = %g, want 1", y)
	}
}

func TestEBE(t *testing.T) {
	// Single BE app at half speed: E_BE = 1 - 1/2 = 0.5.
	ebe, err := EBE([]BESample{{SoloIPC: 2, MeasuredIPC: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ebe-0.5) > 1e-12 {
		t.Errorf("E_BE = %g, want 0.5", ebe)
	}
	// No interference: 0. Faster than solo clamps to 0 too.
	for _, m := range []float64{2.0, 2.5} {
		ebe, err = EBE([]BESample{{SoloIPC: 2, MeasuredIPC: m}})
		if err != nil {
			t.Fatal(err)
		}
		if ebe != 0 {
			t.Errorf("E_BE(measured=%g) = %g, want 0", m, ebe)
		}
	}
	// Harmonic combination: slowdowns 1 and 3 -> E_BE = 1 - 2/4 = 0.5.
	ebe, err = EBE([]BESample{
		{SoloIPC: 1, MeasuredIPC: 1},
		{SoloIPC: 3, MeasuredIPC: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ebe-0.5) > 1e-12 {
		t.Errorf("harmonic E_BE = %g, want 0.5", ebe)
	}
}

func TestSystemCombination(t *testing.T) {
	lc := []LCSample{{IdealMs: 1, MeasuredMs: 4, TargetMs: 2}} // Q = 0.5
	be := []BESample{{SoloIPC: 2, MeasuredIPC: 1}}             // E_BE = 0.5
	elc, ebe, es, err := System{RI: 0.8}.Compute(lc, be)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(elc-0.5) > 1e-12 || math.Abs(ebe-0.5) > 1e-12 {
		t.Fatalf("elc=%g ebe=%g", elc, ebe)
	}
	if math.Abs(es-0.5) > 1e-12 {
		t.Errorf("E_S = %g, want 0.5", es)
	}

	// Scenario 1: LC only forces RI -> 1.
	_, _, es, err = System{RI: 0.3}.Compute(lc, nil)
	if err != nil || math.Abs(es-0.5) > 1e-12 {
		t.Errorf("LC-only E_S = %g (err %v), want E_LC", es, err)
	}
	// Scenario 2: BE only forces RI -> 0.
	_, _, es, err = System{RI: 0.9}.Compute(nil, be)
	if err != nil || math.Abs(es-0.5) > 1e-12 {
		t.Errorf("BE-only E_S = %g (err %v), want E_BE", es, err)
	}
}

func TestSystemErrors(t *testing.T) {
	if _, _, _, err := (System{RI: 1.5}).Compute(nil, []BESample{{SoloIPC: 1, MeasuredIPC: 1}}); err == nil {
		t.Error("RI out of range accepted")
	}
	if _, _, _, err := (System{RI: 0.8}).Compute(nil, nil); !errors.Is(err, ErrNoSamples) {
		t.Error("empty compute should return ErrNoSamples")
	}
	if _, err := ELC(nil); !errors.Is(err, ErrNoSamples) {
		t.Error("empty ELC should return ErrNoSamples")
	}
	if _, err := EBE(nil); !errors.Is(err, ErrNoSamples) {
		t.Error("empty EBE should return ErrNoSamples")
	}
	if _, err := Yield(nil); !errors.Is(err, ErrNoSamples) {
		t.Error("empty Yield should return ErrNoSamples")
	}
}

func TestLCSampleValidate(t *testing.T) {
	bad := []LCSample{
		{IdealMs: 0, MeasuredMs: 1, TargetMs: 2},
		{IdealMs: 2, MeasuredMs: 1, TargetMs: 2}, // target <= ideal
		{IdealMs: 1, MeasuredMs: 0, TargetMs: 2}, // bad measurement
		{IdealMs: 1, MeasuredMs: math.NaN(), TargetMs: 2},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad sample %d accepted", i)
		}
	}
	if err := (LCSample{IdealMs: 1, MeasuredMs: 0.5, TargetMs: 2}).Validate(); err != nil {
		t.Errorf("faster-than-ideal measurement rejected: %v", err)
	}
}

func TestBESampleValidate(t *testing.T) {
	for i, s := range []BESample{
		{SoloIPC: 0, MeasuredIPC: 1},
		{SoloIPC: 1, MeasuredIPC: 0},
		{SoloIPC: 1, MeasuredIPC: math.NaN()},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("bad sample %d accepted", i)
		}
	}
}

// Property ①: dimensionless, in [0,1], for any valid measurements.
func TestPropertyDimensionless(t *testing.T) {
	f := func(idealRaw, gapRaw, measRaw uint16, soloRaw, realRaw uint16) bool {
		ideal := float64(idealRaw%1000)/100 + 0.01
		target := ideal + float64(gapRaw%1000)/100 + 0.01
		measured := float64(measRaw%10000)/100 + 0.001
		solo := float64(soloRaw%400)/100 + 0.01
		real := float64(realRaw%400)/100 + 0.01
		lc := []LCSample{{IdealMs: ideal, MeasuredMs: measured, TargetMs: target}}
		be := []BESample{{SoloIPC: solo, MeasuredIPC: real}}
		elc, ebe, es, err := System{RI: 0.8}.Compute(lc, be)
		if err != nil {
			return false
		}
		in01 := func(v float64) bool { return v >= 0 && v <= 1 }
		s := lc[0]
		return in01(elc) && in01(ebe) && in01(es) &&
			in01(s.Tolerance()) && in01(s.Interference()) &&
			in01(s.RemainingTolerance()) && in01(s.Intolerable())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Q and ReT are complementary: exactly one is nonzero unless both are zero
// at the boundary, and Q grows with measured latency.
func TestPropertyQReTComplementary(t *testing.T) {
	f := func(measRaw uint16) bool {
		s := LCSample{IdealMs: 1, TargetMs: 3, MeasuredMs: float64(measRaw%1000)/100 + 0.01}
		q, ret := s.Intolerable(), s.RemainingTolerance()
		if q > 0 && ret > 0 {
			return false
		}
		// Monotonicity: more latency, no less intolerable interference.
		worse := s
		worse.MeasuredMs += 1
		return worse.Intolerable() >= q-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// E_S is monotone in RI when E_LC > E_BE (and vice versa).
func TestPropertyRIMonotone(t *testing.T) {
	lc := []LCSample{{IdealMs: 1, MeasuredMs: 10, TargetMs: 2}} // high E_LC
	be := []BESample{{SoloIPC: 1, MeasuredIPC: 0.95}}           // low E_BE
	prev := -1.0
	for ri := 0.0; ri <= 1.0; ri += 0.1 {
		_, _, es, err := System{RI: ri}.Compute(lc, be)
		if err != nil {
			t.Fatal(err)
		}
		if es < prev-1e-12 {
			t.Fatalf("E_S not monotone in RI at %g", ri)
		}
		prev = es
	}
}
