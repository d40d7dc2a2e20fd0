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
// It speaks the unit side of the `go vet` tool protocol, so go vet
// lists, orders and caches the packages; run it through go vet:
//
//	go build -o bin/schedlint ./cmd/schedlint
//	go vet -vettool=bin/schedlint ./...
//
// or simply `make lint`. go vet asks the tool for its version (-V=full)
// and its flags (-flags), then runs it once per package with a JSON
// *.cfg file naming the package's files, its imports' export data and
// its imports' fact files. The tool type-checks the package from that
// export data, runs the suite in lint.Analyzers() order and writes the
// package's fact file, which carries the facts it read onward, since a
// unit sees only its direct imports' files. Standard-library packages
// vetted only for their facts get an empty file: they carry no //lint:
// markers. Findings go to stderr in vet's file:line:col form, with
// exit status 1.
//
// -json, the one flag, emits machine-readable diagnostics (with
// byte-offset suggested fixes) for CI annotations instead:
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
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"strings"

	"mapsched/internal/lint"
	"mapsched/internal/lint/analysis"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("schedlint: ")
	if len(os.Args) > 1 && (os.Args[1] == "-apply" || os.Args[1] == "--apply") {
		n, err := runApply(os.Args[2:])
		if err != nil {
			fmt.Fprintln(os.Stderr, "schedlint -apply:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "schedlint: applied %d suggested fix(es)\n", n)
		return
	}
	jsonOut := flag.Bool("json", false, "emit JSON output")
	version := flag.String("V", "", "print the tool's version for go vet's cache (-V=full) and exit")
	flags := flag.Bool("flags", false, "print the flags go vet may pass on, in JSON, and exit")
	flag.Parse()
	switch {
	case *version != "":
		printVersion(*version)
	case *flags:
		fmt.Println(`[{"Name":"json","Bool":true,"Usage":"emit JSON output"}]`)
	case flag.NArg() == 1 && strings.HasSuffix(flag.Arg(0), ".cfg"):
		os.Exit(runUnit(flag.Arg(0), *jsonOut))
	default:
		log.Fatal("run through go vet: go vet -vettool=$(pwd)/bin/schedlint [-json] packages")
	}
}

// printVersion answers -V=full with a hash of the executable, which go
// vet keys its cache of fact files on.
func printVersion(mode string) {
	if mode != "full" {
		log.Fatalf("unsupported flag value: -V=%s (use -V=full)", mode)
	}
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(exe)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s version devel buildID=%x\n", exe, h.Sum(nil))
}

// vetConfig is the part of go vet's per-package *.cfg file the tool
// reads (cmd/go/internal/work/exec.go writes it).
type vetConfig struct {
	ID                        string // package path, with " [p.test]" for a test variant
	ImportPath                string
	GoVersion                 string
	ModulePath                string // "" for the standard library
	GoFiles                   []string
	ImportMap                 map[string]string // import path -> package path
	PackageFile               map[string]string // package path -> export data
	PackageVetx               map[string]string // package path -> fact file of a direct import
	VetxOnly                  bool              // a dependency: write facts, report nothing
	VetxOutput                string            // where this package's fact file goes
	SucceedOnTypecheckFailure bool
}

// runUnit analyzes the package a *.cfg file describes and returns the
// exit status.
func runUnit(cfgFile string, jsonOut bool) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		log.Fatalf("cannot decode JSON config file %s: %v", cfgFile, err)
	}
	if cfg.VetxOnly && cfg.ModulePath == "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			log.Fatal(err)
		}
		return 0
	}
	fset := token.NewFileSet()
	results, err := analyze(fset, &cfg)
	if err != nil {
		log.Fatal(err)
	}
	switch {
	case cfg.VetxOnly:
		return 0
	case jsonOut:
		printJSON(fset, cfg.ID, results)
		return 0
	}
	exit := 0
	for _, r := range results {
		if r.Err != nil {
			log.Println(r.Err)
			exit = 1
		}
	}
	for _, r := range results {
		for _, d := range r.Diagnostics {
			fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
			exit = 1
		}
	}
	return exit
}

// analyze parses and type-checks the unit's package, runs the suite on
// it (only the fact-exporting analyzers for a VetxOnly unit) and writes
// its fact file. A package that does not type-check under
// SucceedOnTypecheckFailure yields no results and no error: the
// compiler reports it.
func analyze(fset *token.FileSet, cfg *vetConfig) ([]analysis.Result, error) {
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, nil
			}
			return nil, err
		}
		files = append(files, f)
	}
	analyzers := lint.Analyzers()
	facts := analysis.NewFacts(analyzers...)
	for _, path := range sortedKeys(cfg.PackageVetx) {
		data, err := os.ReadFile(cfg.PackageVetx[path])
		if err != nil {
			return nil, err
		}
		if err := facts.Read(data); err != nil {
			return nil, fmt.Errorf("facts of %s: %v", path, err)
		}
	}
	if cfg.VetxOnly {
		var withFacts []*analysis.Analyzer
		for _, a := range analyzers {
			if len(a.FactTypes) > 0 {
				withFacts = append(withFacts, a)
			}
		}
		analyzers = withFacts
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	conf := &types.Config{
		Importer: importerFunc(func(importPath string) (*types.Package, error) {
			path, ok := cfg.ImportMap[importPath]
			if !ok {
				return nil, fmt.Errorf("can't resolve import %q", importPath)
			}
			return gc.Import(path)
		}),
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	_, results, err := analysis.Check(conf, fset, cfg.ImportPath, files, analyzers, facts)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil
		}
		return nil, err
	}
	data, err := facts.Encode()
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(cfg.VetxOutput, data, 0o666); err != nil {
		return nil, fmt.Errorf("failed to export analysis facts: %v", err)
	}
	return results, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// printJSON prints the unit's findings as the {"pkg": {"analyzer":
// [diagnostic...]}} tree runApply reads, one entry per analyzer that
// reported a diagnostic or failed.
func printJSON(fset *token.FileSet, id string, results []analysis.Result) {
	byAnalyzer := map[string]interface{}{}
	for _, r := range results {
		if r.Err != nil {
			byAnalyzer[r.Analyzer.Name] = struct {
				Err string `json:"error"`
			}{r.Err.Error()}
			continue
		}
		var diags []jsonDiagnostic
		for _, d := range r.Diagnostics {
			jd := jsonDiagnostic{Posn: fset.Position(d.Pos).String(), Message: d.Message}
			for _, fix := range d.SuggestedFixes {
				var edits []textEdit
				for _, e := range fix.TextEdits {
					start, end := fset.Position(e.Pos), fset.Position(e.End)
					edits = append(edits, textEdit{Filename: start.Filename, Start: start.Offset, End: end.Offset, New: string(e.NewText)})
				}
				jd.SuggestedFixes = append(jd.SuggestedFixes, suggestedFix{Message: fix.Message, Edits: edits})
			}
			diags = append(diags, jd)
		}
		if len(diags) > 0 {
			byAnalyzer[r.Analyzer.Name] = diags
		}
	}
	tree := map[string]map[string]interface{}{}
	if len(byAnalyzer) > 0 {
		tree[id] = byAnalyzer
	}
	data, err := json.MarshalIndent(tree, "", "\t")
	if err != nil {
		log.Fatalf("internal error: JSON marshaling failed: %v", err)
	}
	fmt.Printf("%s\n", data)
}
