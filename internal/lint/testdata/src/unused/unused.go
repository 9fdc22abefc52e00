// Package unused is the golden fixture for the unused analyzer. Its init
// function is the root every used declaration is reached from.
package unused

import "ahq/internal/lint/testdata/src/unused/helper"

func init() {
	_ = helper.Shared()
	var s Shape = square{side: 2}
	_ = s.Area()
	_ = Weighted[int]{Sample: 1, Weight: 2}
	_ = pair{}
	Kept()
}

// In a declaration group, one spec's use of another counts.
type (
	pair struct{ a, b part }
	part struct{}
)

// TestOnly is called only from the package's tests.
func TestOnly() int { return 1 } // want `func TestOnly is unused`

// recurse calls only itself, which is no use.
func recurse(n int) int { // want `func recurse is unused`
	if n == 0 {
		return 0
	}
	return recurse(n - 1)
}

// Shape is mentioned by init, so square's Area is reached through it.
type Shape interface{ Area() float64 }

type square struct{ side float64 }

func (s square) Area() float64 { return s.side * s.side }

// Perimeter is called by no one, interface or not.
func (s square) Perimeter() float64 { return 4 * s.side } // want `method Perimeter is unused`

// Weighted is generic; the literal in init sets both of its fields.
type Weighted[T any] struct {
	Sample T
	Weight float64
	Label  string // want `field Label is unused`
}

// Kept is used, so the annotation below it is stale.
//
//ahqlint:allow unused nothing left to suppress // want `stale suppression`
func Kept() {}

//ahqlint:allow unused public API kept for callers outside the module
func Exported() {}
