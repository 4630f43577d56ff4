package gar

import (
	"fmt"
	"sort"
)

// Constructor builds a GAR for a system of n workers with at most f
// Byzantine.
type Constructor func(n, f int) (GAR, error)

// registry maps rule names to constructors. It is populated once at package
// initialisation with the built-in rules and is read-only afterwards, so no
// locking is needed.
var registry = map[string]Constructor{
	"average":      func(n, f int) (GAR, error) { return NewAverage(n) },
	"krum":         func(n, f int) (GAR, error) { return NewKrum(n, f) },
	"multikrum":    func(n, f int) (GAR, error) { return NewMultiKrum(n, f, maxInt(1, n-f-2)) },
	"median":       func(n, f int) (GAR, error) { return NewMedian(n, f) },
	"trimmedmean":  func(n, f int) (GAR, error) { return NewTrimmedMean(n, f) },
	"phocas":       func(n, f int) (GAR, error) { return NewPhocas(n, f) },
	"meamed":       func(n, f int) (GAR, error) { return NewMeamed(n, f) },
	"bulyan":       func(n, f int) (GAR, error) { return NewBulyan(n, f) },
	"mda":          func(n, f int) (GAR, error) { return NewMDA(n, f) },
	"centeredclip": func(n, f int) (GAR, error) { return NewCenteredClip(n, f) },
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// New builds the named rule for (n, f). The name must be one of Names().
func New(name string, n, f int) (GAR, error) {
	ctor, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("gar: unknown rule %q (known: %v)", name, Names())
	}
	return ctor(n, f)
}

// Names returns the sorted list of registered rule names.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ResilientNames returns the registered rules that are (α, f)-Byzantine
// resilient (everything except the average).
func ResilientNames() []string {
	var names []string
	for _, name := range Names() {
		if name != "average" {
			names = append(names, name)
		}
	}
	return names
}
