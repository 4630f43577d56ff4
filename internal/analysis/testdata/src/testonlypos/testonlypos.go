// Package testonlypos seeds what testonly must report: declarations that no
// non-test file references. Its directory lies under internal/, so the
// analyzer covers it.
package testonlypos

func init() { _ = Kept() }

// Kept is referenced from init.
func Kept() int { return 1 }

// Exported is referenced by nothing.
func Exported() int { return 2 } // want `^Exported is referenced by no non-test file`

// unexported is referenced by nothing either.
func unexported() int { return 3 } // want `^unexported is referenced by no non-test file`

type counter struct{ n int }

// Bump is no interface's method, so nothing can call it indirectly.
func (c *counter) Bump() { c.n++ } // want `^\(\*counter\)\.Bump is referenced by no non-test file`

// Recurse calls only itself.
func Recurse(n int) int { // want `^Recurse is referenced by no non-test file`
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}
