package fleet

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"golisa/internal/sim"
)

// checkQuantileOrder asserts the invariant the latency summary promises:
// p50 ≤ p90 ≤ p99 ≤ max.
func checkQuantileOrder(t *testing.T, lat Latency) {
	t.Helper()
	if lat.P50 > lat.P90 || lat.P90 > lat.P99 || lat.P99 > lat.Max {
		t.Errorf("quantiles out of order: p50=%v p90=%v p99=%v max=%v",
			lat.P50, lat.P90, lat.P99, lat.Max)
	}
}

// TestLatencyQuantileOrderingHistogram drives jobLatency directly across
// the shapes the batch engine produces: a single job, a uniform spread,
// and the all-identical batch where every quantile must collapse onto
// the one value.
func TestLatencyQuantileOrderingHistogram(t *testing.T) {
	t.Run("single-observation", func(t *testing.T) {
		lat := jobLatency([]time.Duration{12345})
		checkQuantileOrder(t, lat)
		if lat.P50 != 12345 || lat.Max != 12345 {
			t.Errorf("single job: p50=%v max=%v, want both 12345", lat.P50, lat.Max)
		}
	})
	t.Run("uniform-spread", func(t *testing.T) {
		var durs []time.Duration
		for v := 1000; v >= 1; v-- {
			durs = append(durs, time.Duration(v)*time.Microsecond) // 1µs .. 1ms, unsorted
		}
		lat := jobLatency(durs)
		checkQuantileOrder(t, lat)
		if lat.P50 != 500*time.Microsecond || lat.P90 != 900*time.Microsecond || lat.P99 != 990*time.Microsecond {
			t.Errorf("p50=%v p90=%v p99=%v, want exactly 500µs, 900µs, 990µs", lat.P50, lat.P90, lat.P99)
		}
		if lat.Max != time.Millisecond {
			t.Errorf("max=%v, want exactly 1ms", lat.Max)
		}
	})
	t.Run("all-identical", func(t *testing.T) {
		durs := make([]time.Duration, 64)
		for i := range durs {
			durs[i] = 777777
		}
		lat := jobLatency(durs)
		checkQuantileOrder(t, lat)
		if lat.P50 != lat.Max || lat.P99 != lat.Max {
			t.Errorf("identical durations must collapse: p50=%v p99=%v max=%v",
				lat.P50, lat.P99, lat.Max)
		}
	})
	t.Run("empty", func(t *testing.T) {
		checkQuantileOrder(t, jobLatency(nil))
	})
}

// TestHistogramEmptyAndSmall covers the degenerate cases the batch summary
// hits with tiny job counts: no jobs report zeros, and one job is every
// quantile.
func TestHistogramEmptyAndSmall(t *testing.T) {
	if lat := jobLatency(nil); lat != (Latency{}) {
		t.Errorf("no jobs: %+v, want zeros", lat)
	}
	lat := jobLatency([]time.Duration{7})
	if lat.P50 != 7 || lat.P90 != 7 || lat.P99 != 7 || lat.Max != 7 {
		t.Errorf("single job: %+v, want every quantile 7", lat)
	}
}

// TestLatencyQuantileOrderingLive checks the ordering on real fleet runs:
// a 1-job batch and a uniform many-job batch on several worker counts.
func TestLatencyQuantileOrderingLive(t *testing.T) {
	mc, src := loadFIR(t)
	for _, tc := range []struct {
		name    string
		jobs    int
		workers int
	}{
		{"one-job", 1, 1},
		{"uniform-serial", 6, 1},
		{"uniform-parallel", 8, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sum, err := Run(mc, sim.Compiled, firJobs(src, tc.jobs), Options{Workers: tc.workers})
			if err != nil {
				t.Fatal(err)
			}
			if sum.Failed != 0 {
				t.Fatalf("failed jobs: %+v", sum.Results)
			}
			checkQuantileOrder(t, sum.Latency)
			if sum.Latency.Max == 0 {
				t.Error("max latency is zero on a real batch")
			}
			if sum.Latency.JobsPerSec <= 0 {
				t.Errorf("jobs/sec = %v, want > 0", sum.Latency.JobsPerSec)
			}
			if u := sum.Latency.Utilization; u <= 0 || u > 1.0001 {
				t.Errorf("utilization = %v, want in (0, 1]", u)
			}
		})
	}
}

// TestLatencyStreamRoundTrip runs a batch through the NDJSON streamer and
// checks the latency block survives the trip: the summary line's decoded
// quantiles match the in-memory summary exactly and keep their ordering.
func TestLatencyStreamRoundTrip(t *testing.T) {
	mc, src := loadFIR(t)
	var buf bytes.Buffer
	stream := NewStreamer(&buf)
	sum, err := Run(mc, sim.Compiled, firJobs(src, 4),
		Options{Workers: 2, OnResult: stream.WriteJob})
	if err != nil {
		t.Fatal(err)
	}
	stream.WriteSummary(sum)
	if stream.Err() != nil {
		t.Fatal(stream.Err())
	}

	var jobLines int
	var streamed *Summary
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var rec StreamRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		switch rec.Type {
		case "job":
			jobLines++
		case "summary":
			if streamed != nil {
				t.Fatal("more than one summary record")
			}
			streamed = rec.Summary
		default:
			t.Fatalf("unknown stream record type %q", rec.Type)
		}
	}
	if jobLines != 4 {
		t.Errorf("streamed %d job lines, want 4", jobLines)
	}
	if streamed == nil {
		t.Fatal("no summary record streamed")
	}
	if streamed.Latency != sum.Latency {
		t.Errorf("latency drifted through NDJSON:\nstreamed %+v\nin-memory %+v",
			streamed.Latency, sum.Latency)
	}
	checkQuantileOrder(t, streamed.Latency)
}
