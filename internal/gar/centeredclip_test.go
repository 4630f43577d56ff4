package gar

import (
	"testing"

	"dpbyz/internal/vecmath"
)

func TestCenteredClipConstruction(t *testing.T) {
	if _, err := NewCenteredClip(11, 5); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if _, err := NewCenteredClip(10, 5); err == nil {
		t.Error("2f = n accepted")
	}
	if _, err := NewCenteredClip(1, -1); err == nil {
		t.Error("negative f accepted")
	}
}

func TestCenteredClipMetadata(t *testing.T) {
	g, err := NewCenteredClip(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "centeredclip" || g.N() != 5 || g.F() != 2 || g.KF() != 0 {
		t.Errorf("metadata: %s %d %d %v", g.Name(), g.N(), g.F(), g.KF())
	}
}

func TestCenteredClipPullsTowardHonestCenter(t *testing.T) {
	const n, f = 11, 5
	g, err := NewCenteredClip(n, f)
	if err != nil {
		t.Fatal(err)
	}
	grads := cloudWithOutliers(n, f, 6, 1, 0.05, 200, 31)
	out, err := g.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	honestMean, _ := vecmath.Mean(grads[f:])
	if d := vecmath.Dist(out, honestMean); d > 1 {
		t.Errorf("centeredclip drifted %v from honest mean", d)
	}
}

func TestCenteredClipIdenticalSubmissions(t *testing.T) {
	g, err := NewCenteredClip(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	grads := [][]float64{{2, -1}, {2, -1}, {2, -1}, {2, -1}}
	out, err := g.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	if !vecmath.ApproxEqual(out, []float64{2, -1}, 0) {
		t.Errorf("identical submissions: %v", out)
	}
}
