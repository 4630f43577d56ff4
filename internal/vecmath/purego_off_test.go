//go:build !purego

package vecmath

// puregoBuild reports whether the purego tag leaves the assembly out of this
// build.
const puregoBuild = false
