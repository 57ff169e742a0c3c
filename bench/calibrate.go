package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// calibrate re-executes the benchmark binary n times, one run after
// another with seeds seed, seed+1, ..., and prints each metric's median,
// quartiles and IQR as a share of the median: the run-to-run spread each
// metric's bound must cover.
func calibrate(n int, seed uint64, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(exe, append(args, "-seed", strconv.FormatUint(s, 10))...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, s, err)
		}
		res, err := lastResult(out)
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, s, err)
		}
		if !res.Correct {
			return fmt.Errorf("run %d (seed %d): %d of %d jobs failed", i+1, s, res.Failed, res.Attempted)
		}
		names := make([]string, 0, len(res.Metrics))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			names = append(names, name)
		}
		sort.Strings(names)
		line := fmt.Sprintf("run %d seed %d: %d jobs", i+1, s, res.Attempted)
		for _, name := range names {
			line += fmt.Sprintf(" %s=%.5g", name, res.Metrics[name].Value)
		}
		fmt.Println(line)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	type stat struct {
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		Spread float64 `json:"iqr_share"`
		Unit   string  `json:"unit"`
	}
	summary := map[string]stat{}
	fmt.Printf("%-34s %14s %14s %14s %9s\n", "metric", "median", "q1", "q3", "IQR/med")
	for _, name := range names {
		q1, q2, q3 := quantile(values[name], 0.25), median(values[name]), quantile(values[name], 0.75)
		st := stat{Median: q2, Q1: q1, Q3: q3, Unit: units[name]}
		if q2 != 0 {
			st.Spread = (q3 - q1) / q2
		}
		summary[name] = st
		fmt.Printf("%-34s %14.4f %14.4f %14.4f %8.2f%% %s\n", name, q2, q1, q3, 100*st.Spread, st.Unit)
	}
	out, err := json.Marshal(map[string]any{"runs": n, "first_seed": seed, "args": args, "metrics": summary})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// lastResult parses the result object on the last line of a run's output.
func lastResult(out []byte) (*result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("parse result line: %w", err)
	}
	return &res, nil
}
