package trace

import (
	"math"
	"strings"
	"testing"
)

func TestReadCSV(t *testing.T) {
	in := "time_s,load\n40,0.3\n0,0.1\n120,0.9\n"
	s, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.At(0); got != 0.1 {
		t.Errorf("At(0) = %g", got)
	}
	if got := s.At(50_000); got != 0.3 {
		t.Errorf("At(50s) = %g", got)
	}
	if got := s.At(200_000); got != 0.9 {
		t.Errorf("At(200s) = %g", got)
	}
}

func TestReadCSVAlternateHeaders(t *testing.T) {
	s, err := ReadCSV(strings.NewReader("t,frac\n0,0.5\n10,0.7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.At(5_000); got != 0.5 {
		t.Errorf("At(5s) = %g", got)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"header only":       "time_s,load\n",
		"bad header":        "a,b\n1,0.5\n",
		"bad time":          "time_s,load\nxx,0.5\n",
		"bad load":          "time_s,load\n1,xx\n",
		"load range":        "time_s,load\n1,1.5\n",
		"NaN load":          "time_s,load\n0,0.2\n1,NaN\n",
		"Inf load":          "time_s,load\n1,+Inf\n",
		"NaN time":          "time_s,load\n0,0.2\nNaN,0.5\n",
		"Inf time":          "time_s,load\nInf,0.5\n",
		"-Inf time":         "time_s,load\n-Inf,0.5\n",
		"time overflows ms": "time_s,load\n1e308,0.5\n",
	}
	for label, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig := Fig13Xapian()
	var b strings.Builder
	if err := orig.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range []float64{0, 50_000, 110_000, 130_000, 240_000} {
		if orig.At(tm) != back.At(tm) {
			t.Errorf("round trip differs at %g: %g vs %g", tm, orig.At(tm), back.At(tm))
		}
	}
}

// FuzzReadCSV checks that every trace ReadCSV accepts is a usable load
// profile: finite, ordered start times and every load in [0,1].
func FuzzReadCSV(f *testing.F) {
	for _, s := range []string{
		"time_s,load\n0,0.1\n60,0.8\n",
		"t,frac\n0,0.5\n10,0.7\n",
		"time_s,load\n40,0.3\n0,0.1\n120,0.9\n",
		"time_s,load\n1,NaN\n",
		"time_s,load\nInf,0.5\n",
		"load,time\n0.5,-3\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		for i, st := range s {
			if math.IsNaN(st.StartMs) || math.IsInf(st.StartMs, 0) {
				t.Fatalf("ReadCSV(%q): step %d starts at %g ms", in, i, st.StartMs)
			}
			if !(st.Frac >= 0 && st.Frac <= 1) {
				t.Fatalf("ReadCSV(%q): step %d load %g outside [0,1]", in, i, st.Frac)
			}
			if i > 0 && st.StartMs < s[i-1].StartMs {
				t.Fatalf("ReadCSV(%q): steps out of order at %d", in, i)
			}
		}
	})
}
