// Package attack implements the Byzantine gradient attacks of the paper's
// §5.1: "A Little Is Enough" (Baruch et al. 2019) and "Fall of Empires"
// (Xie et al. 2019), plus auxiliary attacks (sign flip, random noise, zero)
// used by the attack-gallery example and robustness tests.
//
// Following the paper's threat model, all Byzantine workers collude: at each
// step they observe the honest gradient distribution (mean g_t and
// coordinate-wise std σ_t) and every Byzantine worker submits the SAME
// crafted vector g_t + ν·a_t.
//
// Beyond the paper's stateless attacks, the package defines the stateful
// AdaptiveAttack interface (Observe each round's aggregate, then Craft) with
// two concrete state-aware attackers — the GAR-aware inner-product maximizer
// IPM, which line-searches its factor against the server's known rule, and
// DriftAttack, which accumulates past aggregates into a persistent push
// direction.
package attack

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"dpbyz/internal/randx"
	"dpbyz/internal/vecmath"
)

// Attack crafts the common Byzantine gradient for a step, given the honest
// workers' (possibly noisy) gradients of that step. Implementations never
// mutate the inputs.
type Attack interface {
	// Name identifies the attack (lower-case, stable; used by the registry).
	Name() string
	// Craft returns the vector every Byzantine worker submits this step.
	Craft(honest [][]float64, rng *randx.Stream) ([]float64, error)
}

// ErrNoHonestGradients is returned when an attack is invoked with an empty
// honest-gradient estimate.
var ErrNoHonestGradients = errors.New("attack: no honest gradients to observe")

// honestMean is g_t, the coordinate-wise mean of the honest submissions.
func honestMean(honest [][]float64) ([]float64, error) {
	if len(honest) == 0 {
		return nil, ErrNoHonestGradients
	}
	mean, err := vecmath.Mean(honest)
	if err != nil {
		return nil, fmt.Errorf("attack: %w", err)
	}
	return mean, nil
}

// ALIE is "A Little Is Enough": submit g_t − ν·σ_t, the honest mean shifted
// against the coordinate-wise standard deviation, with the paper's ν = 1.5.
type ALIE struct {
	// Nu is the attack factor ν (default DefaultALIENu).
	Nu float64
}

// DefaultALIENu is the factor the paper uses for ALIE (§5.1).
const DefaultALIENu = 1.5

var _ Attack = (*ALIE)(nil)

// NewALIE returns the ALIE attack with the paper's ν = 1.5.
func NewALIE() *ALIE { return &ALIE{Nu: DefaultALIENu} }

// Name implements Attack.
func (a *ALIE) Name() string { return "alie" }

// Craft implements Attack: g_t + ν·a_t with a_t = −σ_t.
func (a *ALIE) Craft(honest [][]float64, _ *randx.Stream) ([]float64, error) {
	mean, err := honestMean(honest)
	if err != nil {
		return nil, err
	}
	std, err := vecmath.CoordStd(honest)
	if err != nil {
		return nil, fmt.Errorf("attack: %w", err)
	}
	return vecmath.Axpy(-a.Nu, std, mean), nil
}

// FallOfEmpires is the inner-product-manipulation attack: submit (1 − ν)·g_t,
// i.e. a_t = −g_t. The paper uses ν = 1.1 (their ν' = 0.1), which made the
// attack "consistently successful" in the original work.
type FallOfEmpires struct {
	// Nu is the attack factor ν (default DefaultFoENu).
	Nu float64
}

// DefaultFoENu is the factor the paper uses for Fall of Empires (§5.1).
const DefaultFoENu = 1.1

var _ Attack = (*FallOfEmpires)(nil)

// NewFallOfEmpires returns the Fall of Empires attack with the paper's
// ν = 1.1.
func NewFallOfEmpires() *FallOfEmpires { return &FallOfEmpires{Nu: DefaultFoENu} }

// Name implements Attack.
func (f *FallOfEmpires) Name() string { return "foe" }

// Craft implements Attack: (1 − ν)·g_t.
func (f *FallOfEmpires) Craft(honest [][]float64, _ *randx.Stream) ([]float64, error) {
	mean, err := honestMean(honest)
	if err != nil {
		return nil, err
	}
	return vecmath.ScaleInPlace(1-f.Nu, mean), nil
}

// SignFlip submits −κ·g_t, the classic gradient-reversal attack.
type SignFlip struct {
	// Kappa scales the reversed gradient (default 1).
	Kappa float64
}

var _ Attack = (*SignFlip)(nil)

// NewSignFlip returns the sign-flip attack with unit magnitude.
func NewSignFlip() *SignFlip { return &SignFlip{Kappa: 1} }

// Name implements Attack.
func (s *SignFlip) Name() string { return "signflip" }

// Craft implements Attack.
func (s *SignFlip) Craft(honest [][]float64, _ *randx.Stream) ([]float64, error) {
	mean, err := honestMean(honest)
	if err != nil {
		return nil, err
	}
	return vecmath.ScaleInPlace(-s.Kappa, mean), nil
}

// RandomNoise submits an arbitrary Gaussian vector of the given scale,
// modelling the paper's "erroneous gradients" failure class (software bugs,
// precision loss) rather than a coordinated attack.
type RandomNoise struct {
	// Sigma is the per-coordinate standard deviation of the junk gradient.
	Sigma float64
}

var _ Attack = (*RandomNoise)(nil)

// NewRandomNoise returns the random-noise fault with per-coordinate
// standard deviation sigma.
func NewRandomNoise(sigma float64) (*RandomNoise, error) {
	if sigma <= 0 {
		return nil, fmt.Errorf("attack: non-positive noise scale %v", sigma)
	}
	return &RandomNoise{Sigma: sigma}, nil
}

// Name implements Attack.
func (r *RandomNoise) Name() string { return "randomnoise" }

// Craft implements Attack.
func (r *RandomNoise) Craft(honest [][]float64, rng *randx.Stream) ([]float64, error) {
	if len(honest) == 0 {
		return nil, ErrNoHonestGradients
	}
	if rng == nil {
		return nil, errors.New("attack: random noise needs a stream")
	}
	return rng.NormalVec(make([]float64, len(honest[0])), r.Sigma), nil
}

// Zero submits the zero vector, modelling a crashed or mute worker (the
// paper's server treats non-received gradients as zero, §2.1).
type Zero struct{}

var _ Attack = (*Zero)(nil)

// NewZero returns the mute-worker fault.
func NewZero() *Zero { return &Zero{} }

// Name implements Attack.
func (z *Zero) Name() string { return "zero" }

// Craft implements Attack.
func (z *Zero) Craft(honest [][]float64, _ *randx.Stream) ([]float64, error) {
	if len(honest) == 0 {
		return nil, ErrNoHonestGradients
	}
	return make([]float64, len(honest[0])), nil
}

// registry maps attack names to factories with default parameters. Read-only
// after initialisation.
var registry = map[string]func() Attack{
	"alie":        func() Attack { return NewALIE() },
	"foe":         func() Attack { return NewFallOfEmpires() },
	"signflip":    func() Attack { return NewSignFlip() },
	"zero":        func() Attack { return NewZero() },
	"mimic":       func() Attack { return NewMimic() },
	"ipm":         func() Attack { return NewIPM() },
	"drift":       func() Attack { return NewDrift() },
	"randomnoise": func() Attack { return &RandomNoise{Sigma: 1} },
}

// New returns the named attack with its default (paper) parameters.
func New(name string) (Attack, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("attack: unknown attack %q (known: %v)", name, Names())
	}
	return f(), nil
}

// Names returns the sorted registered attack names.
func Names() []string { return slices.Sorted(maps.Keys(registry)) }
