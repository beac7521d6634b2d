package sim

import (
	"fmt"
	"testing"
)

// Engine throughput benchmarks: the simulator's events/second determine how
// large a Table II grid is practical, so regressions here matter as much as
// correctness.

// buildRing returns a p-rank ring of steps exchange steps, each rank's steps
// stated as one Repeat.
func buildRing(p, steps int) *Program {
	b := NewBuilder(p, false)
	for r := 0; r < p; r++ {
		b.Repeat(r, steps, func(int) {
			b.SendRecv(r, (r+1)%p, 1024, (r-1+p)%p, 1024)
		})
	}
	return b.Build()
}

// buildTree returns a binomial broadcast of segs segments from rank 0, each
// rank's segments stated as one Repeat.
func buildTree(p, segs int) *Program {
	b := NewBuilder(p, false)
	for r := 0; r < p; r++ {
		b.Repeat(r, segs, func(int) {
			if r > 0 {
				// clear lowest set bit -> binomial parent
				b.Recv(r, r&(r-1), 4096)
			}
			for mask := 1; mask < p; mask <<= 1 {
				if r&(mask-1) == 0 && r&mask == 0 && r+mask < p {
					b.Send(r, r+mask, 4096)
				}
			}
		})
	}
	return b.Build()
}

func benchProgram(b *testing.B, prog *Program, stats bool) {
	b.Helper()
	model := newTestModel()
	eng := NewEngine()
	eng.CollectStats(stats)
	b.ResetTimer()
	totalEvents := 0
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(prog, model, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		totalEvents += res.Events
	}
	b.ReportMetric(float64(totalEvents)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkEngineRing(b *testing.B) {
	for _, p := range []int{64, 512} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchProgram(b, buildRing(p, 2*(p-1)), false)
		})
	}
}

// BenchmarkEngineRingStats is the metrics-enabled twin of BenchmarkEngineRing;
// the observability acceptance bar is < 5% events/s regression against it.
func BenchmarkEngineRingStats(b *testing.B) {
	for _, p := range []int{64, 512} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchProgram(b, buildRing(p, 2*(p-1)), true)
		})
	}
}

func BenchmarkEngineBinomialPipelined(b *testing.B) {
	for _, p := range []int{64, 512} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchProgram(b, buildTree(p, 64), false)
		})
	}
}

func BenchmarkEngineBinomialPipelinedStats(b *testing.B) {
	for _, p := range []int{64, 512} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchProgram(b, buildTree(p, 64), true)
		})
	}
}

// BenchmarkBuilderAppend times the builder's two ways of storing ops on 64
// ranks: per rank, 63 distinct sends appended one by one as a literal run,
// then 64 ring steps stated as one Repeat; and Build's pair numbering.
func BenchmarkBuilderAppend(b *testing.B) {
	const p = 64
	for i := 0; i < b.N; i++ {
		bd := NewBuilder(p, false)
		for r := 0; r < p; r++ {
			for d := 1; d < p; d++ {
				bd.SendNB(r, (r+d)%p, 1024)
			}
			bd.Repeat(r, 64, func(int) {
				bd.SendRecv(r, (r+1)%p, 1024, (r-1+p)%p, 1024)
			})
		}
		if bd.Build().NumOps() == 0 {
			b.Fatal("empty program")
		}
	}
}
