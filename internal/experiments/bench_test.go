package experiments

import (
	"context"
	"testing"
)

// BenchmarkRunFigure runs the full Figure-2 condition × seed grid at
// ScaleSmall (the -smoke scale of cmd/dpbyz-experiments), the workload the
// experiment scheduler is optimized for. The serial variant pins the
// scheduler to one worker (the historical execution order); the parallel
// variant uses the GOMAXPROCS default — on a multi-core host the grid's 12
// independent cells then overlap, on a single core the two coincide. The
// results are bit-identical either way.
func BenchmarkRunFigure(b *testing.B) {
	for _, mode := range []struct {
		name    string
		workers int
	}{
		{name: "serial", workers: 1},
		{name: "parallel", workers: 0},
	} {
		b.Run(mode.name, func(b *testing.B) {
			sw := Figure2(ScaleSmall())
			for i := 0; i < b.N; i++ {
				if _, err := Run(context.Background(), sw, Sched{Workers: mode.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
