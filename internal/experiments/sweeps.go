package experiments

import (
	"fmt"
	"strconv"

	runspec "dpbyz/internal/spec"
)

// This file builds the evaluation's Sweeps. Every setting a table does not
// take from its Scale is a constant here.

// condition is one cell of the Figs 2–4 grid.
type condition struct {
	// Label is a human-readable identifier such as "alie+dp".
	Label string
	// AttackName is "" for the unattacked baseline, else an attack registry
	// name.
	AttackName string
	// DP enables Gaussian noise injection at the figure's budget.
	DP bool
}

// grid returns the six conditions of each figure: {none, alie, foe} ×
// {no DP, DP}.
func grid() []condition {
	var out []condition
	for _, atk := range []string{"", "alie", "foe"} {
		for _, dpOn := range []bool{false, true} {
			label := "none"
			if atk != "" {
				label = atk
			}
			if dpOn {
				label += "+dp"
			} else {
				label += "+clear"
			}
			out = append(out, condition{Label: label, AttackName: atk, DP: dpOn})
		}
	}
	return out
}

// Settings of the sweeps beyond the figures (the full version's appendix).
var (
	sweepEpsilons   = []float64{0.1, 0.2, 0.5, 0.9}
	sweepBetas      = []float64{0.1, 0.3, 1, 10}
	sweepStragglers = []int{0, 1, 2, 3}
	sweepRules      = []string{"mda", "trimmedmean"}
	// sweepAttacked is the condition every sweep row trains under.
	sweepAttacked = condition{Label: "alie+dp", AttackName: "alie", DP: true}
)

// sweepBatch is the batch size of every sweep but the crossover (Fig. 2's).
const sweepBatch = 50

// The metric columns of the figure tables and of the per-rule sweeps.
var (
	curveMetrics = []Metric{MetricMinLoss, MetricStepsToMin, MetricFinalAcc, MetricAccStd}
	sweepMetrics = []Metric{MetricMinLoss, MetricFinalAcc, MetricAccStd}
)

// phishingSweep starts a sweep whose rows all train on the scale's
// synthetic phishing data, repeated over scale.seeds() seeds.
func phishingSweep(id, title string, scale Scale, keys []Key, metrics []Metric) Sweep {
	return Sweep{ID: id, Title: title, Keys: keys, Metrics: metrics, Seeds: scale.seeds(), sharedData: true}
}

// paperSpec builds the serializable run spec of one cell at the paper's
// hyperparameters — the same runspec.Spec object that drives
// cmd/dpbyz-train and the cluster backend, so any cell can be exported,
// replayed, or moved to a distributed deployment unchanged. Run sets its
// seed.
func paperSpec(id string, scale Scale, batch int, eps float64, cond condition) runspec.Spec {
	s := runspec.Spec{
		Name:  id + "/" + cond.Label,
		Data:  runspec.DataSpec{N: scale.datasetSize(), Features: scale.features()},
		Model: runspec.ModelSpec{Name: "logistic-mse"},
		// The paper's stack applies its 0.99 momentum at the workers
		// (the distributed-momentum technique of its ref [16]); see
		// simulate.Config.WorkerMomentum.
		Steps:          scale.steps(),
		BatchSize:      batch,
		LearningRate:   PaperLearningRate,
		WorkerMomentum: PaperMomentum,
		ClipNorm:       PaperClipNorm,
		AccuracyEvery:  PaperAccuracyEvery,
	}
	if cond.AttackName == "" {
		// Unattacked baseline: all 11 workers honest, plain averaging
		// (the paper's "when averaging is used, the f workers ... behave
		// as honest workers").
		s.GAR = runspec.GARSpec{Name: "average", N: PaperWorkers}
	} else {
		s.GAR = runspec.GARSpec{Name: "mda", N: PaperWorkers, F: PaperByzantine}
		s.Attack = &runspec.AttackSpec{Name: cond.AttackName}
	}
	if cond.DP {
		s.Mechanism = &runspec.MechanismSpec{Name: "gaussian", Epsilon: eps, Delta: PaperDelta}
	}
	return s
}

// Figure2 is the paper's Fig. 2: the condition grid at b = 50.
func Figure2(s Scale) Sweep { return figure("fig2", 50, 0, s) }

// Figure3 is the paper's Fig. 3: the condition grid at b = 10.
func Figure3(s Scale) Sweep { return figure("fig3", 10, 0, s) }

// Figure4 is the paper's Fig. 4: the condition grid at b = 500.
func Figure4(s Scale) Sweep { return figure("fig4", 500, 0, s) }

// FigureMLP is the non-convex extension of the Fig. 2 grid: the same
// conditions on a one-hidden-layer MLP of width 16 (d grows to
// hidden·(features+2)+1), exercising the general setting of the paper's §3,
// where the VN-ratio analysis (but not Theorem 1) still applies.
func FigureMLP(s Scale) Sweep { return figure("figmlp", 50, 16, s) }

// figure builds the grid() rows of one figure at batch size b, on the
// logistic model or, when mlpHidden > 0, an MLP of that width.
func figure(id string, b, mlpHidden int, scale Scale) Sweep {
	sw := phishingSweep(id,
		fmt.Sprintf("%s (b=%d, eps=%g, steps=%d, seeds=%d)", id, b, PaperEpsilon, scale.steps(), scale.seeds()),
		scale, []Key{{"condition", 12}}, curveMetrics)
	for _, cond := range grid() {
		s := paperSpec(id, scale, b, PaperEpsilon, cond)
		if mlpHidden > 0 {
			s.Model = runspec.ModelSpec{Name: "mlp", Hidden: mlpHidden}
		}
		sw.Rows = append(sw.Rows, Row{Keys: []string{cond.Label}, Spec: s})
	}
	return sw
}

// EpsilonSweep is the full version's sweep over the per-step privacy
// parameter ε under attack at the Fig. 2 batch size: how gracefully
// accuracy degrades as ε shrinks (the paper's "slightly larger privacy
// noise gracefully translates into slightly lower performances").
func EpsilonSweep(scale Scale) Sweep {
	sw := phishingSweep("epssweep", "Epsilon sweep (alie attack, MDA, DP on)",
		scale, []Key{{"epsilon", 10}}, sweepMetrics)
	for _, eps := range sweepEpsilons {
		sw.Rows = append(sw.Rows, Row{
			Keys: []string{strconv.FormatFloat(eps, 'g', 3, 64)},
			Spec: paperSpec(sw.ID, scale, sweepBatch, eps, sweepAttacked),
		})
	}
	return sw
}

// HeterogeneitySweep is the heterogeneous-data analogue of the ε sweep: how
// the DP × Byzantine tension sharpens as the workers' data departs from
// IID. It sweeps the Dirichlet label-skew concentration β (small β =
// extreme skew) per aggregation rule, under attack with DP noise on. The
// partition is materialized per cell from the shared split (a pure function
// of the Spec: index shuffles, not data copies).
func HeterogeneitySweep(scale Scale) Sweep {
	sw := phishingSweep("hetsweep", "Heterogeneity sweep (Dirichlet beta, alie attack, DP on)",
		scale, []Key{{"gar", 14}, {"beta", 8}}, sweepMetrics)
	for _, rule := range sweepRules {
		for _, beta := range sweepBetas {
			s := paperSpec(sw.ID, scale, sweepBatch, PaperEpsilon, sweepAttacked)
			s.Name = fmt.Sprintf("hetsweep/%s/beta=%v", rule, beta)
			s.GAR = runspec.GARSpec{Name: rule, N: PaperWorkers, F: PaperByzantine}
			s.Partition = &runspec.PartitionSpec{Name: "dirichlet", Beta: beta}
			sw.Rows = append(sw.Rows, Row{Keys: []string{rule, strconv.FormatFloat(beta, 'g', 3, 64)}, Spec: s})
		}
	}
	return sw
}

// StalenessSweep measures what bounded-staleness quorum rounds cost in
// convergence: per aggregation rule, under attack with DP noise on, it
// sweeps the per-round straggler count s — the server fires after n − f − s
// submissions, replacing the cut workers' gradients with zeros and crediting
// a frame exactly one round late into the next round. s = 0 is the fully
// synchronous baseline in the same quorum code path. The table adds the
// delivery ledger summed over seeds.
func StalenessSweep(scale Scale) Sweep {
	sw := phishingSweep("stalesweep", "Staleness sweep (quorum = n-f-s, late frames credited, alie attack, DP on)",
		scale, []Key{{"gar", 14}, {"s", 6}}, []Metric{MetricMinLoss, MetricFinalAcc, MetricAccStd,
			MetricAccepted, MetricMissed, MetricDiscarded, MetricCredited})
	for _, rule := range sweepRules {
		for _, stragglers := range sweepStragglers {
			s := paperSpec(sw.ID, scale, sweepBatch, PaperEpsilon, sweepAttacked)
			s.Name = fmt.Sprintf("stalesweep/%s/s=%d", rule, stragglers)
			s.GAR = runspec.GARSpec{Name: rule, N: PaperWorkers, F: PaperByzantine}
			s.Staleness = &runspec.StalenessSpec{Stragglers: stragglers, Late: "credit"}
			sw.Rows = append(sw.Rows, Row{Keys: []string{rule, strconv.Itoa(stragglers)}, Spec: s})
		}
	}
	return sw
}

// SpecCell runs one arbitrary serializable run spec as a one-row table:
// repeated at seeds 1..seeds (0 means a single run at the spec's own seed)
// and aggregated exactly like a figure row, so any JSON spec file — the
// same one cmd/dpbyz-train or a cluster deployment consumes — becomes a
// mean ± std experiment with no translation layer.
func SpecCell(s runspec.Spec, seeds int) Sweep {
	label := s.Name
	if label == "" {
		label = "spec"
	}
	return Sweep{
		ID:      "spec",
		Title:   fmt.Sprintf("Spec cell %s (%d seeds)", label, max(seeds, 1)),
		Keys:    []Key{{"cell", 12}},
		Metrics: curveMetrics,
		Seeds:   seeds,
		Rows:    []Row{{Keys: []string{label}, Spec: s}},
	}
}
