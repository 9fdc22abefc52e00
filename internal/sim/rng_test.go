package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// streamSeeds covers the seeding recipe's edge cases: zero (which math/rand
// maps to a fixed seed), negatives, the most negative int64, multiples of
// 2³¹−1 (which reduce to zero), and the seeds the engine derives for its
// applications.
func streamSeeds() []int64 {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, -42, 42, math.MinInt64, math.MaxInt64, m, -m, 2 * m, 7 * m, m - 1, m + 1}
	for _, base := range []int64{0, 1, 7, 42, -3} {
		for i := 0; i < 4; i++ {
			seeds = append(seeds, base+int64(i+1)*0x9E3779B97F4A7C)
		}
	}
	return seeds
}

// mismatch draws an interleaved sequence of every kind of draw the engine
// makes (plus Int63 and Uint64) from s and from a math/rand generator seeded
// with seed, and describes the first value that differs (nil if none). The interleaving
// comes from a third, independent generator, so the two streams are read in
// irregular patterns, with the normal and exponential draws' occasional
// extra uniforms landing at different register offsets.
func mismatch(s *stream, seed int64, n int) error {
	ref := rand.New(rand.NewSource(seed))
	pick := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
	for i := 0; i < n; i++ {
		var got, want uint64
		kind := pick.Intn(5)
		switch kind {
		case 0:
			got, want = uint64(s.Int63()), uint64(ref.Int63())
		case 1:
			got, want = math.Float64bits(s.Float64()), math.Float64bits(ref.Float64())
		case 2:
			got, want = math.Float64bits(s.NormFloat64()), math.Float64bits(ref.NormFloat64())
		case 3:
			got, want = math.Float64bits(s.ExpFloat64()), math.Float64bits(ref.ExpFloat64())
		default:
			got, want = s.Uint64(), ref.Uint64()
		}
		if got != want {
			return fmt.Errorf("seed %d: draw %d (kind %d) = %#x, math/rand gives %#x", seed, i, kind, got, want)
		}
	}
	return nil
}

// TestStreamMatchesMathRand pins the stream to math/rand's value sequence
// for every seed shape, from a fresh stream and from one re-seeded after
// use: Seed must leave nothing of the previous stream behind.
func TestStreamMatchesMathRand(t *testing.T) {
	used := newStream(99)
	for _, seed := range streamSeeds() {
		if err := mismatch(newStream(seed), seed, 5000); err != nil {
			t.Fatal(err)
		}
		used.Seed(seed)
		if err := mismatch(used, seed, 5000); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentSeedingMatchesMathRand seeds streams from several
// goroutines at once, as parallel fleet shards do, so they share the pool
// of seeding sources.
func TestConcurrentSeedingMatchesMathRand(t *testing.T) {
	seeds := streamSeeds()
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newStream(int64(g))
			for i := range seeds {
				seed := seeds[(i+g)%len(seeds)]
				s.Seed(seed)
				if errs[g] = mismatch(s, seed, 500); errs[g] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
