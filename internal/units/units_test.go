package units

import (
	"testing"
	"time"
)

func TestMsToDuration(t *testing.T) {
	cases := []struct {
		ms   float64
		want time.Duration
	}{
		{0, 0},
		{1, time.Millisecond},
		{500, 500 * time.Millisecond},
		{0.25, 250 * time.Microsecond},
		{1000, time.Second},
	}
	for _, c := range cases {
		if got := MsToDuration(c.ms); got != c.want {
			t.Errorf("MsToDuration(%v) = %v, want %v", c.ms, got, c.want)
		}
	}
}
