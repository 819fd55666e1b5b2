// Package a plants one export of each kind TestNoTestOnlyExports must
// tell apart: named by a program, named bare inside its package, named
// only by a test, named only by itself, and marked //speedlight:api.
package a

// Used is named by the program.
func Used() int { return Bare + helper() }

func helper() int { return 0 }

// Bare is named only inside its own package, which counts.
const Bare = 1

// TestOnly is named only by a_test.go.
func TestOnly() {}

// Self names only itself.
func Self(n int) int {
	if n == 0 {
		return 0
	}
	return Self(n - 1)
}

// T is named by the program, which calls M through a selector; N is
// called only by a test.
type T struct{}

func (T) M() {}

func (T) N() {}

// Orphan is named only by its own method's receiver.
type Orphan struct{}

func (o *Orphan) size() int { return 0 }

// API is reached by reflection, never by name.
//
//speedlight:api the fixture's stand-in for a MarshalJSON pair
func API() {}

var (
	V1 = 1 // named by the program
	V2 = 2 // named only by a test
)

// NoReason carries the directive without a reason, which keeps
// nothing.
//
//speedlight:api
func NoReason() {}
