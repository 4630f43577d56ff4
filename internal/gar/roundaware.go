package gar

// RoundAware was the hook through which the retired cross-round incremental
// kernel observed the round counter. No rule implements it and no round loop
// calls it; the declaration survives only because bench/wrap.go names it,
// and ROADMAP item 13, which deletes that file, deletes it too.
type RoundAware interface {
	BeginRound(round int)
}
