package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// runApply reads `go vet -json` output (from the named files, or
// stdin when none are given), collects the suggested-fix text edits,
// and splices them into the source files. It returns the number of
// edits applied.
//
// The vet driver emits one JSON object per package — a tree of
// {"pkg": {"analyzer": [diagnostic...]}} — interleaved with
// "# pkgpath" comment lines; edits carry byte offsets into the
// diagnosed file. Overlapping edits to the same file are rejected
// rather than guessed at, and identical duplicates (the same fix
// reported for a package and its test variant) are applied once.
func runApply(args []string) (int, error) {
	var input io.Reader
	if len(args) == 0 {
		input = os.Stdin
	} else {
		var readers []io.Reader
		for _, name := range args {
			f, err := os.Open(name)
			if err != nil {
				return 0, err
			}
			defer f.Close()
			readers = append(readers, f)
		}
		input = io.MultiReader(readers...)
	}
	edits, err := collectEdits(input)
	if err != nil {
		return 0, err
	}
	return applyEdits(edits)
}

type textEdit struct {
	Filename string `json:"filename"`
	Start    int    `json:"start"`
	End      int    `json:"end"`
	New      string `json:"new"`
}

type suggestedFix struct {
	Message string     `json:"message"`
	Edits   []textEdit `json:"edits"`
}

type jsonDiagnostic struct {
	Posn           string         `json:"posn"`
	Message        string         `json:"message"`
	SuggestedFixes []suggestedFix `json:"suggested_fixes,omitempty"`
}

// collectEdits parses the (comment-interleaved) JSON stream and
// returns the deduplicated edits grouped by file.
func collectEdits(r io.Reader) (map[string][]textEdit, error) {
	// Drop the "# pkgpath" progress lines the go command prints
	// between per-package JSON objects.
	var clean bytes.Buffer
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	for sc.Scan() {
		if strings.HasPrefix(strings.TrimSpace(sc.Text()), "#") {
			continue
		}
		clean.Write(sc.Bytes())
		clean.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	edits := map[string][]textEdit{}
	seen := map[textEdit]bool{}
	dec := json.NewDecoder(&clean)
	for {
		// pkg -> analyzer -> diagnostics (or an {"error": ...} object,
		// which fails the per-analyzer unmarshal and is skipped).
		var tree map[string]map[string]json.RawMessage
		if err := dec.Decode(&tree); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("parsing vet JSON: %w", err)
		}
		for _, pkg := range sortedKeys(tree) {
			analyzers := tree[pkg]
			for _, name := range sortedKeys(analyzers) {
				var diags []jsonDiagnostic
				if err := json.Unmarshal(analyzers[name], &diags); err != nil {
					continue
				}
				for _, d := range diags {
					for _, fix := range d.SuggestedFixes {
						for _, e := range fix.Edits {
							if e.Filename == "" || seen[e] {
								continue
							}
							seen[e] = true
							edits[e.Filename] = append(edits[e.Filename], e)
						}
					}
				}
			}
		}
	}
	return edits, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// applyEdits splices the edits into each file, last-to-first so the
// byte offsets stay valid. It checks every file before it writes any,
// so overlapping or out-of-range edits leave the whole tree untouched.
func applyEdits(edits map[string][]textEdit) (int, error) {
	files := sortedKeys(edits)
	out := make([][]byte, len(files))
	for i, name := range files {
		es := edits[name]
		sort.Slice(es, func(i, j int) bool { return es[i].Start > es[j].Start })
		for i := 1; i < len(es); i++ {
			if es[i].End > es[i-1].Start {
				return 0, fmt.Errorf("%s: overlapping suggested fixes at offsets %d and %d; apply manually",
					name, es[i].Start, es[i-1].Start)
			}
		}
		src, err := os.ReadFile(name)
		if err != nil {
			return 0, err
		}
		for _, e := range es {
			if e.Start < 0 || e.End < e.Start || e.End > len(src) {
				return 0, fmt.Errorf("%s: suggested fix offsets [%d,%d) out of range (file changed since lint?)",
					name, e.Start, e.End)
			}
			var spliced []byte
			spliced = append(spliced, src[:e.Start]...)
			spliced = append(spliced, e.New...)
			spliced = append(spliced, src[e.End:]...)
			src = spliced
		}
		out[i] = src
	}
	applied := 0
	for i, name := range files {
		if err := os.WriteFile(name, out[i], 0o644); err != nil {
			return applied, err
		}
		applied += len(edits[name])
	}
	return applied, nil
}
