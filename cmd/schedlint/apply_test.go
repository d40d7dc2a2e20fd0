package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestApplyFix feeds a hand-built `go vet -json` stream (with the
// go command's "# pkg" progress lines interleaved) through the
// -apply pipeline and checks the errcmp-style rewrite lands at the
// right byte offsets.
func TestApplyFix(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "cmp.go")
	src := "package p\n\nfunc f(err error) bool { return err == ErrBoom }\n"
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	start := strings.Index(src, "err == ErrBoom")
	end := start + len("err == ErrBoom")

	stream := fmt.Sprintf(`# p
{
	"p": {
		"errcmp": [
			{
				"posn": %q,
				"message": "sentinel error \"ErrBoom\" compared with ==",
				"suggested_fixes": [
					{
						"message": "replace == comparison with errors.Is(err, ErrBoom)",
						"edits": [
							{"filename": %q, "start": %d, "end": %d, "new": "errors.Is(err, ErrBoom)"}
						]
					}
				]
			}
		],
		"lockheld": {"error": "analyzer skipped"}
	}
}
`, file+":3:32", file, start, end)

	edits, err := collectEdits(strings.NewReader(stream))
	if err != nil {
		t.Fatalf("collectEdits: %v", err)
	}
	n, err := applyEdits(edits)
	if err != nil {
		t.Fatalf("applyEdits: %v", err)
	}
	if n != 1 {
		t.Fatalf("applied %d edits, want 1", n)
	}
	got, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want := "package p\n\nfunc f(err error) bool { return errors.Is(err, ErrBoom) }\n"
	if string(got) != want {
		t.Errorf("after apply:\n%s\nwant:\n%s", got, want)
	}
}

// TestApplyRejectsOverlap: overlapping fixes must refuse rather than
// corrupt the file.
func TestApplyRejectsOverlap(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "x.go")
	if err := os.WriteFile(file, []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	edits := map[string][]textEdit{file: {
		{Filename: file, Start: 2, End: 6, New: "a"},
		{Filename: file, Start: 4, End: 8, New: "b"},
	}}
	if _, err := applyEdits(edits); err == nil {
		t.Error("overlapping edits applied without error")
	}
}

// TestApplyDeduplicates: the same fix reported twice (package and
// test variant) is applied once.
func TestApplyDeduplicates(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "x.go")
	if err := os.WriteFile(file, []byte("abc"), 0o644); err != nil {
		t.Fatal(err)
	}
	stream := fmt.Sprintf(`{"p":{"errcmp":[{"posn":"x","message":"m","suggested_fixes":[{"message":"f","edits":[{"filename":%q,"start":1,"end":2,"new":"Z"}]}]}]}}
{"p [p.test]":{"errcmp":[{"posn":"x","message":"m","suggested_fixes":[{"message":"f","edits":[{"filename":%q,"start":1,"end":2,"new":"Z"}]}]}]}}
`, file, file)
	edits, err := collectEdits(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	n, err := applyEdits(edits)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("applied %d edits, want 1 after dedup", n)
	}
	got, _ := os.ReadFile(file)
	if string(got) != "aZc" {
		t.Errorf("file = %q, want aZc", got)
	}
}

// TestApplyChecksEveryFileBeforeWriting: a bad edit in a later file must
// leave the earlier files untouched, not half-apply the fixes.
func TestApplyChecksEveryFileBeforeWriting(t *testing.T) {
	dir := t.TempDir()
	good, bad := filepath.Join(dir, "a.go"), filepath.Join(dir, "b.go")
	for _, f := range []string{good, bad} {
		if err := os.WriteFile(f, []byte("0123456789"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	edits := map[string][]textEdit{
		good: {{Filename: good, Start: 1, End: 2, New: "Z"}},
		bad: {
			{Filename: bad, Start: 2, End: 6, New: "a"},
			{Filename: bad, Start: 4, End: 8, New: "b"},
		},
	}
	if _, err := applyEdits(edits); err == nil {
		t.Fatal("overlapping edits applied without error")
	}
	if got, _ := os.ReadFile(good); string(got) != "0123456789" {
		t.Errorf("a.go = %q, rewritten before b.go's edits were checked", got)
	}
}
