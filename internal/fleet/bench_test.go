package fleet

import (
	"fmt"
	"io"
	"testing"

	"golisa/internal/otrace"
	"golisa/internal/sim"
)

// BenchmarkFleetScaling runs 64 FIR jobs four ways: a serial baseline where
// every job builds its own simulator from scratch (assemble + decode +
// compile per job), and the fleet with 1, 2, 4 and 8 workers sharing one
// pre-warmed artifact. On a multi-core host the worker variants scale
// near-linearly; every fleet variant additionally asserts that no job
// performed any run-time decode or closure compilation.
//
//	go test ./internal/fleet -bench FleetScaling -benchtime 3x
func BenchmarkFleetScaling(b *testing.B) {
	mc, src := loadFIR(b)
	const nJobs = 64
	jobs := firJobs(src, nJobs)

	b.Run("serial-standalone", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < nJobs; j++ {
				s, _, err := mc.AssembleAndLoad(src, sim.CompiledPrebound)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Run(1_000_000); err != nil {
					b.Fatal(err)
				}
				if !s.Halted() {
					b.Fatal("did not halt")
				}
			}
		}
	})

	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sum, err := Run(mc, sim.CompiledPrebound, jobs, Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if sum.Failed != 0 {
					b.Fatalf("failed jobs: %+v", sum.Results)
				}
				// Zero-recompilation acceptance: the shared artifact carries
				// every decode and closure; no job re-does that work.
				if sum.JobDecodes != 0 || sum.JobCompiles != 0 {
					b.Fatalf("jobs re-did shared work: decodes=%d compiles=%d",
						sum.JobDecodes, sum.JobCompiles)
				}
			}
		})
	}
}

// BenchmarkFleetTelemetryOverhead measures what batch telemetry costs:
// the same 64-job batch with no sink attached, with a Metrics collector
// accounting for it through a Service (live off the span tree, then from
// the summary), and with the full flag stack (metrics + the Chrome fleet
// lanes rendered from the span tree + a discarding NDJSON streamer fed
// by OnResult). The detached variant is the acceptance gate — it must
// stay within noise of BenchmarkFleetScaling/workers-4, since every
// batch records its spans whether or not a sink reads them.
//
//	go test ./internal/fleet -bench FleetTelemetryOverhead -benchtime 3x
func BenchmarkFleetTelemetryOverhead(b *testing.B) {
	mc, src := loadFIR(b)
	jobs := firJobs(src, 64)
	const workers = 4
	check := func(b *testing.B, sum *Summary, err error) {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		if sum.Failed != 0 {
			b.Fatalf("failed jobs: %+v", sum.Results)
		}
	}

	b.Run("detached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sum, err := Run(mc, sim.CompiledPrebound, jobs, Options{Workers: workers})
			check(b, sum, err)
		}
	})
	b.Run("metrics", func(b *testing.B) {
		sv := &Service{Machine: mc, Mode: sim.CompiledPrebound, Workers: workers, Metrics: NewMetrics()}
		for i := 0; i < b.N; i++ {
			sum, err := sv.Run(&Manifest{Jobs: jobs}, nil, nil)
			check(b, sum, err)
		}
	})
	b.Run("full-stack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := otrace.New("bench")
			m, cs, st := NewMetrics(), NewChromeSpans(), NewStreamer(io.Discard)
			sum, err := Run(mc, sim.CompiledPrebound, jobs, Options{
				Workers: workers, Trace: tr, OnResult: st.WriteJob,
			})
			check(b, sum, err)
			st.WriteSummary(sum)
			m.Add(sum)
			cs.AddBatch(tr.Export(), sum)
		}
	})
}
