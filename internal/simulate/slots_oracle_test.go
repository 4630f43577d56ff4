package simulate

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"dpbyz/internal/checkpoint"
	"dpbyz/internal/membership"
	"dpbyz/internal/randx"
)

// source names the buffer that fills a submission slot.
type source uint8

const (
	fromFresh source = iota // the worker's own frame of the step
	fromStale               // its one-round-late frame
	fromZeros               // the §2.1 zero pad
	fromOther               // none of the three: a routing bug
)

// oracleRound is one round as the oracle books it.
type oracleRound struct {
	sources []source
	ledger  [4]int // accepted, missed, discarded, credited
	books   []membership.EpochStat
}

// oracleLedger is the simulator's own staleness overlay and epoch books as
// they stood before every frame went through membership.SlotTable: the
// accept / credit / discard switch, the hand-kept counters and the per-step
// epoch-ledger arithmetic, kept here case for case, with each slot write
// recorded as its source, as the oracle the table route must reproduce
// round for round.
type oracleLedger struct {
	n           int
	lateDiscard bool
	epochRounds int // 0: no epochs
	f           int
	rng         *randx.Stream
	idx         []int
	isStraggler []bool
	hasPending  []bool

	accepted, missed, discarded, credited int
	view                                  []int
	epochStats                            []membership.EpochStat
}

func newOracleLedger(cfg Config, r *runner) *oracleLedger {
	o := &oracleLedger{
		n:           cfg.GAR.N(),
		lateDiscard: cfg.LateDiscard,
		f:           cfg.GAR.F(),
		rng:         randx.New(0),
		idx:         make([]int, cfg.Stragglers),
		isStraggler: make([]bool, cfg.GAR.N()),
		hasPending:  make([]bool, cfg.GAR.N()),
	}
	o.rng.SetState(r.stragglerRng.State())
	if cfg.Epochs != nil {
		o.epochRounds = cfg.Epochs.EpochRounds
		for i := 0; i < o.n; i++ {
			o.view = append(o.view, i)
		}
	}
	return o
}

// round runs one step of the oracle: enterEpoch's ledger append at a
// boundary, overlayStaleness, the step's epoch-ledger arithmetic, and
// stashStragglers' pending marks.
func (o *oracleLedger) round(step int) oracleRound {
	if o.epochRounds > 0 && step%o.epochRounds == 0 {
		o.epochStats = append(o.epochStats, membership.EpochStat{
			Epoch: step / o.epochRounds, N: o.n, F: o.f, View: o.view,
		})
	}
	prevAccepted, prevMissed := o.accepted, o.missed
	src := o.overlay()
	if o.epochRounds > 0 {
		st := &o.epochStats[len(o.epochStats)-1]
		st.Rounds++
		st.Accepted += o.accepted - prevAccepted
		st.Missed += o.missed - prevMissed
	}
	copy(o.hasPending, o.isStraggler)
	rec := oracleRound{sources: src, ledger: [4]int{o.accepted, o.missed, o.discarded, o.credited}}
	if o.epochRounds > 0 {
		rec.books = slices.Clone(o.epochStats)
	}
	return rec
}

func (o *oracleLedger) overlay() []source {
	src := make([]source, o.n)
	o.rng.Sample(o.idx, o.n)
	for i := range o.isStraggler {
		o.isStraggler[i] = false
	}
	for _, i := range o.idx {
		o.isStraggler[i] = true
	}
	for i := 0; i < o.n; i++ {
		pending := o.hasPending[i]
		switch {
		case pending && !o.lateDiscard:
			src[i] = fromStale
			o.accepted++
			o.credited++
			if !o.isStraggler[i] {
				o.discarded++
			}
		case o.isStraggler[i]:
			if pending {
				o.discarded++
			}
			src[i] = fromZeros
			o.missed++
		default:
			if pending {
				o.discarded++
			}
			o.accepted++
		}
	}
	return src
}

func sameBuffer(a, b []float64) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// observe reads back the round the runner just committed.
func observe(r *runner) oracleRound {
	rec := oracleRound{sources: make([]source, r.n)}
	for i, s := range r.submissions {
		switch {
		case sameBuffer(s, r.zeros):
			rec.sources[i] = fromZeros
		case sameBuffer(s, r.stale[i]):
			rec.sources[i] = fromStale
		case sameBuffer(s, r.fresh[i]): // a Byzantine worker's fresh frame is the crafted vector
			rec.sources[i] = fromFresh
		default:
			rec.sources[i] = fromOther
		}
	}
	a, m, c := r.table.Totals()
	rec.ledger = [4]int{a, m, r.discarded, c}
	if r.cfg.Epochs != nil {
		rec.books = r.table.Epochs()
	}
	return rec
}

// TestSlotTableMatchesOracleOverlay crosses seeds × {credit, discard} ×
// {no epochs, 3-round epochs} × stragglers {1, 2, n−1} × {uninterrupted,
// resumed mid-epoch, resumed at a boundary} and checks every round: which
// buffer fills each slot, all four ledger counters and the epoch books.
func TestSlotTableMatchesOracleOverlay(t *testing.T) {
	const steps = 12
	sawLateMisses := false
	for _, seed := range []uint64{1, 2, 3} {
		for _, discard := range []bool{false, true} {
			for _, epochs := range []bool{false, true} {
				for _, stragglers := range []int{1, 2, 6} {
					mk := func() Config {
						cfg := stalenessConfig(t, stragglers)
						cfg.Seed, cfg.Steps, cfg.LateDiscard = seed, steps, discard
						if epochs {
							cfg.Epochs = epochConfig(t, steps).Epochs
							cfg.Epochs.EpochRounds = 3
						}
						return cfg
					}
					r, err := newRunner(mk())
					if err != nil {
						t.Fatal(err)
					}
					o := newOracleLedger(mk(), r)
					want := make([]oracleRound, steps)
					for step := range want {
						want[step] = o.round(step)
					}
					if epochs && discard && missesEpochTail(want, 3) {
						sawLateMisses = true
					}
					for _, resumeAt := range []int{0, 7, 6} {
						name := fmt.Sprintf("seed=%d/discard=%v/epochs=%v/stragglers=%d/resume=%d",
							seed, discard, epochs, stragglers, resumeAt)
						compareWithOracle(t, name, mk(), resumeAt, want)
					}
				}
			}
		}
	}
	if !sawLateMisses {
		t.Error("no discard + epochs schedule had a worker miss the last two rounds of an epoch")
	}
}

// compareWithOracle drives a runner — resumed from its own snapshot at
// resumeAt when positive — round by round against the oracle's books.
func compareWithOracle(t *testing.T, name string, cfg Config, resumeAt int, want []oracleRound) {
	t.Helper()
	if resumeAt > 0 {
		var snap *checkpoint.RunState
		capture := cfg
		capture.SnapshotEvery = resumeAt
		capture.SnapshotFunc = func(st *checkpoint.RunState) error {
			if st.Step == resumeAt {
				snap = st
			}
			return nil
		}
		if _, err := Run(context.Background(), capture); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg.Resume = snap
	}
	r, err := newRunner(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rounds := r.tracker.Config().EpochRounds
	for step := resumeAt; step < cfg.Steps; step++ {
		if step > resumeAt && step%rounds == 0 {
			if err := r.enterEpoch(step); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if err := r.step(step); err != nil {
			t.Fatalf("%s: step %d: %v", name, step, err)
		}
		got, w := observe(r), want[step]
		if !slices.Equal(got.sources, w.sources) {
			t.Fatalf("%s: step %d slot sources %v, oracle %v", name, step, got.sources, w.sources)
		}
		if got.ledger != w.ledger {
			t.Fatalf("%s: step %d ledger %v, oracle %v", name, step, got.ledger, w.ledger)
		}
		if !slices.EqualFunc(got.books, w.books, func(a, b membership.EpochStat) bool {
			return a.Epoch == b.Epoch && a.N == b.N && a.F == b.F && a.Rounds == b.Rounds &&
				a.Accepted == b.Accepted && a.Missed == b.Missed && slices.Equal(a.View, b.View)
		}) {
			t.Fatalf("%s: step %d books %+v, oracle %+v", name, step, got.books, w.books)
		}
	}
}

// missesEpochTail reports whether some worker's slot was zero-padded in the
// last two rounds of an epoch that another epoch follows. The runner must
// then open the next epoch on all n workers — the local cohort never
// evicts — which compareWithOracle checks through the books' N and View.
func missesEpochTail(rounds []oracleRound, epochRounds int) bool {
	for end := epochRounds - 1; end+1 < len(rounds); end += epochRounds {
		for i, src := range rounds[end].sources {
			if src == fromZeros && rounds[end-1].sources[i] == fromZeros {
				return true
			}
		}
	}
	return false
}
