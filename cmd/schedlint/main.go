// Command schedlint is the repository's custom static-analysis suite,
// statically enforcing the simulator's determinism, cache
// invalidation, concurrency, and persistence contracts:
//
//	nodeterminism  no wall-clock reads, global math/rand draws, or
//	               map-iteration order escaping into simulation state
//	               or emitted output
//	epochbump      mutations of //lint:epoch-guarded fields (FlowNet
//	               capacities, HDFS replica sets) must bump an epoch
//	poolreset      //lint:pooled free-list release sites must reset
//	               every field not marked //lint:pooled-keep
//	obsvocab       obs event emissions must use registered event-type
//	               constants, keeping the golden-JSONL schema closed
//	optflag        functional options guarded by set flags must write
//	               their flag (journal / journalSet and friends)
//	lockheld       //lint:guarded fields only under their mutex,
//	               *Locked//lint:locked call-site discipline, and
//	               lock-scope escapes (goroutines, returned interior
//	               pointers, lost deferred close-outs)
//	snapshotfree   //lint:immutable-after-publish types admit writes
//	               only in constructors and //lint:publish sites
//	deltajournal   journal Op enums encoded, decode/apply switches
//	               exhaustive, Apply*/Update* deltas reach the
//	               //lint:journal-append helper
//	errcmp         //lint:sentinel errors compared with errors.Is,
//	               never == or identity switch (with suggested fix)
//	funnel         //lint:funnel fields written only by the
//	               //lint:funnel functions of their package (the task
//	               transitions that keep the per-job task counts)
//
// It speaks the `go vet` tool protocol; run it through the driver:
//
//	go build -o bin/schedlint ./cmd/schedlint
//	go vet -vettool=bin/schedlint ./...
//
// or simply `make lint`. Passing -json through the driver emits
// machine-readable diagnostics (with byte-offset suggested fixes) for
// CI annotations:
//
//	go vet -vettool=bin/schedlint -json ./...
//
// and piping that JSON back into `schedlint -apply` splices the
// mechanical rewrites (errcmp's errors.Is suggestions) into the
// source files — this is what `make lint-fix` runs:
//
//	go vet -vettool=bin/schedlint -json ./... | bin/schedlint -apply
//
// A file can suppress one analyzer for the whole file with a
// `//lint:allow <analyzer> [reason]` comment; the v2 analyzers
// (lockheld, snapshotfree, deltajournal, errcmp) and funnel additionally scope
// an allow in a declaration's doc comment to that declaration alone.
package main

import (
	"fmt"
	"os"

	"golang.org/x/tools/go/analysis/unitchecker"

	"mapsched/internal/lint"
)

func main() {
	if len(os.Args) > 1 && (os.Args[1] == "-apply" || os.Args[1] == "--apply") {
		n, err := runApply(os.Args[2:])
		if err != nil {
			fmt.Fprintln(os.Stderr, "schedlint -apply:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "schedlint: applied %d suggested fix(es)\n", n)
		return
	}
	unitchecker.Main(lint.Analyzers()...)
}
