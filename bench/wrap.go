package main

import (
	"context"
	"fmt"
	"time"

	"dpbyz/internal/attack"
	"dpbyz/internal/cluster"
	"dpbyz/internal/data"
	"dpbyz/internal/dp"
	"dpbyz/internal/gar"
	"dpbyz/internal/model"
	"dpbyz/internal/randx"
)

// Timing wrappers for the interface-typed seams simulate.Config,
// cluster.ServerConfig and cluster.WorkerConfig accept. Each forwards every
// method, including the optional interfaces the consumers probe for, so a
// wrapped run does the same arithmetic as a plain one — which the traced
// mode proves by comparing final-parameter hashes.

// record is how a wrapper files a span: under the round in progress on the
// round loop's goroutine, under the run on a cluster worker's.
type record func(name spanName, start, end time.Time)

// timedModel wraps a model.Model that also has the batched gradient kernel,
// as every model in this repository does.
type timedModel struct {
	inner model.BatchGradienter
	rec   record
}

var _ model.BatchGradienter = (*timedModel)(nil)

func wrapModel(m model.Model, rec record) (model.Model, error) {
	bg, ok := m.(model.BatchGradienter)
	if !ok {
		return nil, fmt.Errorf("bench: model %s has no batched kernel to forward", m.Name())
	}
	return &timedModel{inner: bg, rec: rec}, nil
}

func (m *timedModel) Name() string  { return m.inner.Name() }
func (m *timedModel) Dim() int      { return m.inner.Dim() }
func (m *timedModel) Features() int { return m.inner.Features() }

func (m *timedModel) Loss(w []float64, batch []data.Point) float64 {
	t0 := time.Now()
	l := m.inner.Loss(w, batch)
	m.rec(spanModelLoss, t0, time.Now())
	return l
}

func (m *timedModel) Gradient(dst, w []float64, batch []data.Point) []float64 {
	t0 := time.Now()
	g := m.inner.Gradient(dst, w, batch)
	m.rec(spanModelGrad, t0, time.Now())
	return g
}

func (m *timedModel) ClippedBatchGradient(dst, buf, w []float64, batch []data.Point, xSq []float64, clip float64) []float64 {
	t0 := time.Now()
	g := m.inner.ClippedBatchGradient(dst, buf, w, batch, xSq, clip)
	m.rec(spanModelGrad, t0, time.Now())
	return g
}

// timedMechanism wraps a dp.Mechanism.
type timedMechanism struct {
	inner dp.Mechanism
	rec   record
}

var _ dp.Mechanism = (*timedMechanism)(nil)

func (m *timedMechanism) Name() string                   { return m.inner.Name() }
func (m *timedMechanism) Sigma() float64                 { return m.inner.Sigma() }
func (m *timedMechanism) PerCoordinateVariance() float64 { return m.inner.PerCoordinateVariance() }

func (m *timedMechanism) Perturb(v []float64, rng *randx.Stream) []float64 {
	t0 := time.Now()
	out := m.inner.Perturb(v, rng)
	m.rec(spanDPPerturb, t0, time.Now())
	return out
}

func (m *timedMechanism) PerturbInto(dst, v []float64, rng *randx.Stream) []float64 {
	t0 := time.Now()
	out := m.inner.PerturbInto(dst, v, rng)
	m.rec(spanDPPerturb, t0, time.Now())
	return out
}

// timedAttack wraps a stateless attack.Attack.
type timedAttack struct {
	inner attack.Attack
	rec   record
}

// wrapAttack refuses attacks with the optional stateful interfaces: hiding
// them behind the wrapper would change what the run computes.
func wrapAttack(a attack.Attack, rec record) (attack.Attack, error) {
	if _, ok := a.(attack.AdaptiveAttack); ok {
		return nil, fmt.Errorf("bench: attack %s is adaptive; the timing wrapper forwards stateless attacks only", a.Name())
	}
	if _, ok := a.(attack.GARAware); ok {
		return nil, fmt.Errorf("bench: attack %s is GAR-aware; the timing wrapper forwards stateless attacks only", a.Name())
	}
	return &timedAttack{inner: a, rec: rec}, nil
}

func (a *timedAttack) Name() string { return a.inner.Name() }

func (a *timedAttack) Craft(honest [][]float64, rng *randx.Stream) ([]float64, error) {
	t0 := time.Now()
	v, err := a.inner.Craft(honest, rng)
	a.rec(spanAttackCraft, t0, time.Now())
	return v, err
}

// timedGAR wraps an aggregation rule. before, when set, runs at the start of
// every aggregation with the start time — the cluster trace uses it to close
// the collect-wait interval.
type timedGAR struct {
	inner  gar.GAR
	rec    record
	before func(start time.Time)
}

var (
	_ gar.GAR            = (*timedGAR)(nil)
	_ gar.IntoAggregator = (*timedGAR)(nil)
	_ gar.RoundAware     = (*timedRoundAwareGAR)(nil)
)

// timedRoundAwareGAR adds the forwarding of gar.RoundAware for rules that
// carry cross-round state; a stateless rule must not grow the method, or the
// round loops would start calling it.
type timedRoundAwareGAR struct {
	*timedGAR
	ra gar.RoundAware
}

func (g *timedRoundAwareGAR) BeginRound(round int) { g.ra.BeginRound(round) }

func wrapGAR(g gar.GAR, rec record, before func(time.Time)) gar.GAR {
	tg := &timedGAR{inner: g, rec: rec, before: before}
	if ra, ok := g.(gar.RoundAware); ok {
		return &timedRoundAwareGAR{timedGAR: tg, ra: ra}
	}
	return tg
}

// wrapGARFactory wraps every rule an epoched run re-materializes.
func wrapGARFactory(f func(n, f int) (gar.GAR, error), rec record, before func(time.Time)) func(n, f int) (gar.GAR, error) {
	return func(n, fByz int) (gar.GAR, error) {
		g, err := f(n, fByz)
		if err != nil {
			return nil, err
		}
		return wrapGAR(g, rec, before), nil
	}
}

func (g *timedGAR) Name() string { return g.inner.Name() }
func (g *timedGAR) N() int       { return g.inner.N() }
func (g *timedGAR) F() int       { return g.inner.F() }
func (g *timedGAR) KF() float64  { return g.inner.KF() }

func (g *timedGAR) Aggregate(grads [][]float64) ([]float64, error) {
	t0 := time.Now()
	if g.before != nil {
		g.before(t0)
	}
	out, err := g.inner.Aggregate(grads)
	g.rec(spanGARAggregate, t0, time.Now())
	return out, err
}

// AggregateInto goes through gar.AggregateInto, which takes the inner rule's
// allocation-free path exactly when a plain run would.
func (g *timedGAR) AggregateInto(dst []float64, grads [][]float64) error {
	t0 := time.Now()
	if g.before != nil {
		g.before(t0)
	}
	err := gar.AggregateInto(g.inner, dst, grads)
	g.rec(spanGARAggregate, t0, time.Now())
	return err
}

// countingTransport wraps a cluster.Transport so that every connection
// counts its bytes and frames and times its writes. Connections the listener
// accepts are the server's; connections Dial returns are the workers'.
type countingTransport struct {
	inner cluster.Transport
	rt    *runTrace
}

var _ cluster.Transport = (*countingTransport)(nil)

func (t *countingTransport) Listen(addr string) (cluster.Listener, error) {
	ln, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: ln, rt: t.rt}, nil
}

func (t *countingTransport) Dial(ctx context.Context, addr string) (cluster.Conn, error) {
	c, err := t.inner.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, rt: t.rt}, nil
}

type countingListener struct {
	cluster.Listener
	rt *runTrace
}

func (l *countingListener) Accept() (cluster.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, rt: l.rt, server: true}, nil
}

// countingConn counts one protocol frame per Write, as the Conn contract
// states. Reads are forwarded untimed: a blocked read is the peer's time.
type countingConn struct {
	cluster.Conn
	rt     *runTrace
	server bool
}

func (c *countingConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	t1 := time.Now()
	c.rt.frames.Add(1)
	if c.server {
		c.rt.bytesDown.Add(int64(n))
		c.rt.inRound(spanServerWrite, t0, t1)
		c.rt.lastServerWrite.Store(c.rt.t.since(t1))
	} else {
		c.rt.bytesUp.Add(int64(n))
		c.rt.inRun(spanWorkerWrite, t0, t1)
	}
	return n, err
}
