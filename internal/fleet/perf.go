package fleet

import (
	"golisa/internal/asm"
	"golisa/internal/core"
	"golisa/internal/perf"
	"golisa/internal/sim"
)

// batchEngine suffixes the mode for fleet-produced records: batch numbers
// (contended workers, queueing) are not comparable to single-run
// calibration, so they form their own ledger histories.
func batchEngine(mode sim.Mode) string { return mode.String() + "/batch" }

// buildPerfRecords turns a finished batch into ledger records: one per
// job (deterministic counters from the Result, wall time from the job's
// single run span) plus one batch-level record carrying the latency
// summary. Records are sealed and ready to append.
func buildPerfRecords(mc *core.Machine, mode sim.Mode, jobs []Job, progs map[string]*asm.Program, sum *Summary, stamp string) []*perf.RunRecord {
	modelHash := perf.HashString(mc.Source)
	engine := batchEngine(mode)
	recs := make([]*perf.RunRecord, 0, len(jobs)+1)

	progHashes := make([]string, 0, len(jobs))
	for i := range jobs {
		res := &sum.Results[i]
		prog := progs[jobs[i].Source]
		progHash := ""
		if prog != nil {
			progHash = perf.HashProgram(prog.Origin, prog.Words)
		}
		progHashes = append(progHashes, progHash)
		if res.Err != "" {
			continue // failed jobs have no comparable numbers
		}
		rec := perf.New(perf.Env{
			Model:       mc.Model.Name,
			ModelHash:   modelHash,
			Program:     res.Name,
			ProgramHash: progHash,
			Engine:      engine,
			Workers:     1, // each job runs on one worker
			Time:        stamp,
			TraceID:     res.TraceID,
			SpanID:      res.SpanID,
		})
		// No analyzer report rides a fleet result, so the issue/idle split
		// is unknown here; retired packets stand in for dispatches and the
		// per-cause penalty map still gates the stall mix.
		rec.Counters = perf.Counters{
			Cycles:     res.Steps,
			Dispatches: res.Profile.Retired,
			Halted:     res.Halted,
		}
		if len(res.Penalty) > 0 {
			rec.Counters.Penalty = res.Penalty
		}
		rec.SetCoverage(res.Coverage)
		if res.Steps > 0 && res.RunFor > 0 {
			rec.SetWall([]float64{float64(res.RunFor.Nanoseconds()) / float64(res.Steps)})
		}
		recs = append(recs, rec.Seal())
	}

	// The batch-level record: identity is the combined program set, the
	// wall tier is the whole run phase, and the latency summary rides in
	// Batch. Ledger histories of this record gate throughput.
	batch := perf.New(perf.Env{
		Model:       mc.Model.Name,
		ModelHash:   modelHash,
		Program:     "batch",
		ProgramHash: perf.HashString(joinHashes(progHashes)),
		Engine:      engine,
		Workers:     sum.Workers,
		Time:        stamp,
		TraceID:     sum.TraceID,
		SpanID:      sum.SpanID,
	})
	batch.Counters = perf.Counters{Cycles: sum.TotalSteps, Halted: sum.Failed == 0}
	if len(sum.Penalty) > 0 {
		batch.Counters.Penalty = sum.Penalty
	}
	batch.SetCoverage(sum.Coverage)
	if sum.TotalSteps > 0 && sum.Elapsed > 0 {
		batch.SetWall([]float64{float64(sum.Elapsed.Nanoseconds()) / float64(sum.TotalSteps)})
	}
	batch.Batch = &perf.BatchStats{
		Jobs:        sum.Jobs,
		Workers:     sum.Workers,
		P50Ns:       uint64(sum.Latency.P50),
		P90Ns:       uint64(sum.Latency.P90),
		P99Ns:       uint64(sum.Latency.P99),
		MaxNs:       uint64(sum.Latency.Max),
		JobsPerSec:  sum.Latency.JobsPerSec,
		Utilization: sum.Latency.Utilization,
	}
	return append(recs, batch.Seal())
}

// joinHashes concatenates per-job program hashes in job order, the
// batch-identity preimage (job order is part of the batch's shape).
func joinHashes(hs []string) string {
	out := ""
	for _, h := range hs {
		out += h + ";"
	}
	return out
}
