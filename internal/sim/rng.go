package sim

import (
	"math/rand"
	"sync"
)

// stream is math/rand's additive lagged Fibonacci generator (Mitchell and
// Reeds; 607 registers, tap 273) as a concrete type. Every value it returns
// is the one rand.New(rand.NewSource(seed)) would return for the same call
// sequence, but the uniform draws the request path makes per arrival — the
// Poisson draw, the arrival instant, the wakeup delay, the term — are
// direct, inlinable method calls instead of calls through the Source
// interface. Normal and exponential draws go through norm, a *rand.Rand
// over the stream itself, so math/rand's ziggurat tables are used as they
// are rather than copied.
type stream struct {
	tap, feed int
	vec       [rngLen]int64
	norm      *rand.Rand
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
)

// seedSources holds math/rand sources used only to seed streams; one is
// reused per concurrent seeding instead of one held per application.
var seedSources sync.Pool

// newStream returns a stream seeded with seed.
func newStream(seed int64) *stream {
	s := &stream{}
	s.norm = rand.New(s)
	s.Seed(seed)
	return s
}

// Seed resets the stream to exactly the state rand.NewSource(seed) starts
// in. The seeding recipe's constant table is not copied: a math/rand source
// seeded the same way is drawn 607 times, which overwrites every register
// once, so the draws are its register file 607 steps on; stepping that
// register back 607 times recovers the seeded state.
func (s *stream) Seed(seed int64) {
	src, _ := seedSources.Get().(rand.Source64)
	if src == nil {
		src = rand.NewSource(seed).(rand.Source64)
	} else {
		src.Seed(seed)
	}
	s.tap, s.feed = 0, rngLen-rngTap
	for i := 0; i < rngLen; i++ {
		s.step()
		s.vec[s.feed] = int64(src.Uint64())
	}
	seedSources.Put(src)
	// tap and feed are back where seeding leaves them; undo each step in
	// reverse order.
	for i := 0; i < rngLen; i++ {
		s.vec[s.feed] -= s.vec[s.tap]
		if s.feed++; s.feed == rngLen {
			s.feed = 0
		}
		if s.tap++; s.tap == rngLen {
			s.tap = 0
		}
	}
}

// step moves tap and feed one register back, as each draw does.
func (s *stream) step() {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
}

// Uint64 returns the next 64-bit value (math/rand's Source64.Uint64).
func (s *stream) Uint64() uint64 {
	s.step()
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next non-negative 63-bit value (Source.Int63).
func (s *stream) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Float64 returns a uniform draw in [0, 1), as (*rand.Rand).Float64 does:
// the same division, and the same retry on the rare draw that rounds to 1.
func (s *stream) Float64() float64 {
	for {
		f := float64(s.Int63()) / (1 << 63)
		if f < 1 {
			return f
		}
	}
}

// NormFloat64 returns a standard normal draw ((*rand.Rand).NormFloat64).
func (s *stream) NormFloat64() float64 { return s.norm.NormFloat64() }

// ExpFloat64 returns a unit-rate exponential draw ((*rand.Rand).ExpFloat64).
func (s *stream) ExpFloat64() float64 { return s.norm.ExpFloat64() }
