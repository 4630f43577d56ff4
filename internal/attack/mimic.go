package attack

import (
	"dpbyz/internal/randx"
	"dpbyz/internal/vecmath"
)

// Mimic is the heterogeneity attack of Karimireddy et al. (2022): every
// Byzantine worker replays one fixed honest worker's gradient. No robust
// aggregator can flag the submission as malicious (it IS an honest
// gradient), yet the over-representation biases the aggregate towards that
// worker's data. Included as an extension beyond the paper's two attacks;
// it is most effective in non-IID settings. The mimicked worker is the
// first honest gradient passed to Craft.
type Mimic struct{}

var _ Attack = (*Mimic)(nil)

// NewMimic returns the mimic attack replaying honest worker 0.
func NewMimic() *Mimic { return &Mimic{} }

// Name implements Attack.
func (m *Mimic) Name() string { return "mimic" }

// Craft implements Attack: a copy of the first honest gradient.
func (m *Mimic) Craft(honest [][]float64, _ *randx.Stream) ([]float64, error) {
	if len(honest) == 0 {
		return nil, ErrNoHonestGradients
	}
	return vecmath.Clone(honest[0]), nil
}
