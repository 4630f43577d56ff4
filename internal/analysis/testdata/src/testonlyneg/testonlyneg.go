// Package testonlyneg holds what testonly must accept: every declaration is
// referenced from a non-test file, reachable through an interface, or a
// waived seam.
package testonlyneg

import "fmt"

func init() {
	var b Box[int]
	b.Stash(Used())
	var s shape = square(2)
	fmt.Println(b.Peek(), Sum([]float64{1, 2}), celsius(3), s)
}

// Used is called from init, and calls helper.
func Used() int { return helper() }

func helper() int { return 1 }

type celsius float64

// String is fmt.Stringer's method, an interface of an imported package.
func (c celsius) String() string { return fmt.Sprintf("%g°C", float64(c)) }

type shape interface{ Area() float64 }

type square float64

// Area is shape's method, an interface declared here; nothing calls it
// directly.
func (s square) Area() float64 { return float64(s * s) }

// Box is generic; init reaches its methods through the instance Box[int].
type Box[T any] struct{ v T }

// Stash stores v.
func (b *Box[T]) Stash(v T) { b.v = v }

// Peek returns the stored value.
func (b *Box[T]) Peek() T { return b.v }

// Sum is a generic function called through an inferred instance.
func Sum[T int | float64](xs []T) T {
	var s T
	for _, x := range xs {
		s += x
	}
	return s
}

// Seam is kept for tests by a reviewed waiver.
//
//dpbyz:testseam
func Seam() {}
