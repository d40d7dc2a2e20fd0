// Command mrreplay re-derives the scheduler decisions of a recorded
// event log without running the simulation: it rebuilds the cluster and
// jobs from the same flags the recording ran with, feeds the logged
// task lifecycle back into the standalone placement decision service as
// state deltas, and checks every recorded map decision's task and
// C / C_avg / P breakdown bit-for-bit.
//
// Record with mrsim, then verify:
//
//	mrsim -sched probabilistic -mode hops -events run.events.jsonl \
//	      -workload wordcount -scale 12 -seed 1
//	mrreplay -workload wordcount -scale 12 -seed 1 run.events.jsonl
//
// Only hop-cost, fault-free, closed-batch probabilistic recordings are
// replayable; anything else (fault, open-system or network-condition
// streams) is rejected rather than replayed wrong.
//
// Exit codes: 0 when every decision matches, 1 on input or
// configuration errors, 2 on usage errors, 3 when the stream replays
// but decisions diverge, and 4 when the stream is outside the
// replayable envelope — rejected streams also print a single
// machine-readable line on stderr:
//
//	mrreplay: status=not_replayable reason="..."
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mapsched"
)

// Exit codes past the conventional 0/1/2: diverged decision streams and
// rejected (unreplayable) recordings are distinct, scriptable verdicts.
const (
	exitDiverged      = 3
	exitNotReplayable = 4
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its edges cut for testing: args are the command-line
// arguments after the program name, and the returned int is the exit
// code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mrreplay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wlName = fs.String("workload", "wordcount", "batch the recording ran, named as for mrsim")
		scale  = fs.Int("scale", 6, "workload scale divisor of the recording")
		seed   = fs.Int64("seed", 1, "seed of the recording")
		nodes  = fs.Int("nodes", 60, "nodes per rack of the recording")
		racks  = fs.Int("racks", 1, "racks of the recording")
		pmin   = fs.Float64("pmin", 0.4, "P_min threshold of the recording")
		repl   = fs.Int("replication", 2, "HDFS replication factor of the recording")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: mrreplay [flags] run.events.jsonl")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "mrreplay:", err)
		return 1
	}

	batch, err := mapsched.ParseBatch(*wlName)
	if err != nil {
		return fail(err)
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	events, err := mapsched.ReadEventLog(f)
	f.Close()
	if err != nil {
		return fail(err)
	}

	cfg := mapsched.DefaultClusterConfig()
	cfg.Topology.NodesPerRack = *nodes
	cfg.Topology.Racks = *racks
	cfg.Seed = *seed
	rep, err := mapsched.Replay(cfg, batch, events,
		mapsched.WithScale(*scale),
		mapsched.WithPmin(*pmin),
		mapsched.WithReplication(*repl),
	)
	if errors.Is(err, mapsched.ErrNotReplayable) {
		fmt.Fprintf(stderr, "mrreplay: status=not_replayable reason=%q\n", err)
		return exitNotReplayable
	}
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "events:        %d\n", rep.Events)
	fmt.Fprintf(stdout, "state deltas:  %d\n", rep.Deltas)
	fmt.Fprintf(stdout, "map decisions: %d re-derived\n", rep.MapDecisions)
	if rep.Ok() {
		fmt.Fprintln(stdout, "verdict:       faithful (every decision matches bit-for-bit)")
		return 0
	}
	fmt.Fprintf(stdout, "verdict:       %d decisions disagree\n", len(rep.Mismatches))
	for _, m := range rep.Mismatches {
		fmt.Fprintf(stdout, "  %s\n", m)
	}
	return exitDiverged
}
