// lisa-replay inspects and re-executes .lrec recordings written by
// lisa-sim -record.
//
// Usage:
//
//	lisa-replay run.lrec                     # summarize the recording
//	lisa-replay -goto 1234 run.lrec          # reconstruct cycle 1234, print state
//	lisa-replay -verify run.lrec             # re-execute, cross-check every event
//	lisa-replay -diff other.lrec run.lrec    # first divergence between two runs
//	lisa-replay -events 10:20 run.lrec       # dump the recorded events of a range
//
// A recording is self-contained: it embeds the model source and an
// initial checkpoint, so replay needs no other files. -goto restores the
// nearest checkpoint at or before the target and deterministically
// re-executes forward; -verify replays the whole run and compares every
// event and checkpoint hash against the recording, so any
// non-determinism (or decoder/scheduler regression) is pinpointed at the
// first diverging cycle. -diff walks two recordings of the same model
// and reports the first differing record with a window of pre-divergence
// context from both. Exit status is 1 on verification failure or
// divergence.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"golisa/internal/cli"
	"golisa/internal/replay"
)

func main() {
	gotoCycle := flag.String("goto", "", "reconstruct the state at this cycle (decimal or 0x hex) and print it")
	verify := flag.Bool("verify", false, "re-execute the whole recording, cross-checking every event and checkpoint hash")
	diffPath := flag.String("diff", "", "compare against this second .lrec recording and report the first divergence")
	events := flag.String("events", "", "dump the recorded events of a cycle range lo:hi (half-open)")
	window := flag.Uint64("window", 8, "with -diff: cycles of pre-divergence context to dump from each recording")
	cli.AddVersionFlag(flag.CommandLine)
	flag.Parse()
	cli.HandleVersion()
	if flag.NArg() != 1 {
		cli.Usage("[-goto N] [-verify] [-diff other.lrec] [-events lo:hi] recording.lrec")
	}
	rec, err := cli.OpenRecording(flag.Arg(0))
	cli.Fail(err)

	switch {
	case *diffPath != "":
		other, err := cli.OpenRecording(*diffPath)
		cli.Fail(err)
		res := replay.Diff(rec, other, *window)
		res.Dump(os.Stdout)
		if !res.Equal {
			os.Exit(1)
		}
	case *verify:
		rp, err := replay.NewReplayer(rec)
		cli.Fail(err)
		rep, err := rp.Verify()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: verification FAILED: %v\n", cli.Tool, err)
			os.Exit(1)
		}
		fmt.Printf("verified: %d cycles, %d events and %d checkpoint hashes match; final cycle %d, halted=%v\n",
			rep.Steps, rep.Events, rep.Hashes, rep.Final, rep.Halted)
	case *gotoCycle != "":
		cycle, err := strconv.ParseUint(*gotoCycle, 0, 64)
		if err != nil {
			cli.Fail(fmt.Errorf("bad -goto %q: %v", *gotoCycle, err))
		}
		rp, err := replay.NewReplayer(rec)
		cli.Fail(err)
		cli.Fail(rp.Goto(cycle))
		printState(rp, cycle)
	case *events != "":
		lo, hi, err := parseRange(*events)
		cli.Fail(err)
		for _, e := range rec.EventsInRange(lo, hi) {
			fmt.Println(rec.Render(e))
		}
	default:
		inspect(rec)
	}
}

// inspect prints a one-screen summary of the recording.
func inspect(rec *replay.Recording) {
	status := "complete"
	if rec.Truncated {
		status = "truncated"
	} else if !rec.Complete {
		status = "partial (no end record)"
	}
	fmt.Printf("model:        %s (%s mode)\n", rec.ModelName, rec.Mode)
	fmt.Printf("cycles:       %d (%s, halted=%v)\n", rec.FinalStep, status, rec.Halted)
	fmt.Printf("events:       %d recorded, %d external inputs\n", rec.Events, rec.InputCount)
	fmt.Printf("checkpoints:  %d (cadence %d cycles)\n", len(rec.Checkpoints), rec.Every)
	fmt.Printf("size:         %d bytes\n", rec.Size)
	for _, ck := range rec.Checkpoints {
		fmt.Printf("  checkpoint at cycle %-8d state hash %#016x\n", ck.Step, ck.Hash)
	}
}

// printState prints the reconstructed architectural state.
func printState(rp *replay.Replayer, cycle uint64) {
	s := rp.Sim
	fmt.Printf("cycle %d, state hash %#016x\n", cycle, s.StateHash())
	for _, r := range s.M.Resources {
		if r.IsAlias || r.IsMemory() {
			continue
		}
		v, err := s.Scalar(r.Name)
		cli.Fail(err)
		fmt.Printf("  %-12s = %d (%#x)\n", r.Name, v.Uint(), v.Uint())
	}
}

func parseRange(s string) (lo, hi uint64, err error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad -events %q: want lo:hi", s)
	}
	if lo, err = strconv.ParseUint(parts[0], 0, 64); err != nil {
		return 0, 0, fmt.Errorf("bad -events %q: %v", s, err)
	}
	if hi, err = strconv.ParseUint(parts[1], 0, 64); err != nil {
		return 0, 0, fmt.Errorf("bad -events %q: %v", s, err)
	}
	return lo, hi, nil
}
