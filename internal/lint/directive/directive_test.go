package directive_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"

	"mapsched/internal/lint/directive"
)

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text string
		want []string
	}{
		{"//lint:allow nodeterminism", []string{"nodeterminism"}},
		{"//lint:allow nodeterminism seeded RNG wrapper", []string{"nodeterminism"}},
		{"//lint:allow nodeterminism,epochbump", []string{"nodeterminism", "epochbump"}},
		{"//lint:allow a, b", []string{"a"}}, // names end at the first whitespace
		{"//lint:allow  obsvocab\treason words", []string{"obsvocab"}},
		{"//lint:allow ,,", nil},  // empty name list
		{"//lint:allow", nil},     // bare directive names nothing
		{"//lint:allowed x", nil}, // not the directive
		{"// lint:allow x", nil},  // space breaks the marker
		{"//lint:epoch-guarded", nil},
		{"// plain comment", nil},
	}
	for _, c := range cases {
		if got := directive.ParseAllow(c.text); !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseAllow(%q) = %v, want %v", c.text, got, c.want)
		}
	}
}

func parse(t *testing.T, src string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFileAllows(t *testing.T) {
	doc := parse(t, "// Package p does things.\n//\n//lint:allow nodeterminism wall-clock progress\npackage p\n")
	if !directive.FileAllows(doc, "nodeterminism") {
		t.Error("doc-comment directive not recognized")
	}
	if directive.FileAllows(doc, "epochbump") {
		t.Error("directive leaked to an unnamed analyzer")
	}

	inner := parse(t, "package p\n\n//lint:allow optflag legacy shim\nfunc f() {}\n")
	if !directive.FileAllows(inner, "optflag") {
		t.Error("declaration-level directive not recognized")
	}

	plain := parse(t, "package p\n\n// no directives here\nfunc f() {}\n")
	if directive.FileAllows(plain, "nodeterminism") {
		t.Error("false positive on a plain comment")
	}
}

func TestHeaderAllows(t *testing.T) {
	header := parse(t, "// Package p does things.\n//\n//lint:allow lockheld test double\npackage p\n")
	if !directive.HeaderAllows(header, "lockheld") {
		t.Error("package doc directive not recognized")
	}

	// A declaration-level allow must NOT become file-wide under the
	// narrower header check — that is the whole point of scoping.
	inner := parse(t, "package p\n\n//lint:allow lockheld constructor\nfunc f() {}\n")
	if directive.HeaderAllows(inner, "lockheld") {
		t.Error("declaration-level allow leaked to the whole file")
	}
}

func TestGuardedMu(t *testing.T) {
	src := `package p

import "sync"

type s struct {
	mu sync.Mutex
	a  int //lint:guarded mu
	//lint:guarded mu protects the delta epoch
	b int
	c int //lint:epoch-guarded
	d int //lint:guardedish mu
}
`
	f := parse(t, src)
	want := map[string]string{"a": "mu", "b": "mu", "c": "", "d": ""}
	st := f.Decls[1].(*ast.GenDecl).Specs[0].(*ast.TypeSpec).Type.(*ast.StructType)
	for _, field := range st.Fields.List {
		if len(field.Names) == 0 {
			continue
		}
		name := field.Names[0].Name
		if w, ok := want[name]; ok {
			if got := directive.GuardedMu(field); got != w {
				t.Errorf("GuardedMu(%s) = %q, want %q", name, got, w)
			}
		}
	}
}

func TestDeclAllowsAndLockedMu(t *testing.T) {
	src := `package p

//lint:allow lockheld escape hatch for embedded clients
func f() {}

//lint:locked mu
func g() {}

// plain doc
func h() {}
`
	f := parse(t, src)
	fd := func(i int) *ast.FuncDecl { return f.Decls[i].(*ast.FuncDecl) }
	if !directive.DeclAllows(fd(0).Doc, "lockheld") {
		t.Error("scoped allow not recognized")
	}
	if directive.DeclAllows(fd(0).Doc, "errcmp") {
		t.Error("scoped allow leaked to an unnamed analyzer")
	}
	if got := directive.LockedMu(fd(1).Doc); got != "mu" {
		t.Errorf("LockedMu = %q, want mu", got)
	}
	if got := directive.LockedMu(fd(2).Doc); got != "" {
		t.Errorf("LockedMu on plain doc = %q, want empty", got)
	}
}

func TestJournalDirectives(t *testing.T) {
	src := `package p

//lint:journal-ops
type Op string

//lint:journaled
type Svc struct{}

//lint:journal-append
func appendRec() {}

//lint:journal-exhaustive Op except OpBegin,OpNoop
func decode() {}

//lint:journal-exhaustive Op
func apply() {}
`
	f := parse(t, src)
	opDecl := f.Decls[0].(*ast.GenDecl)
	if !directive.IsJournalOps(opDecl.Doc) {
		t.Error("journal-ops marker not recognized")
	}
	svcDecl := f.Decls[1].(*ast.GenDecl)
	if !directive.IsJournaled(svcDecl.Doc) {
		t.Error("journaled marker not recognized")
	}
	if directive.IsJournalOps(svcDecl.Doc) {
		t.Error("journaled misread as journal-ops")
	}
	if !directive.IsJournalAppend(f.Decls[2].(*ast.FuncDecl).Doc) {
		t.Error("journal-append marker not recognized")
	}
	name, except := directive.JournalExhaustive(f.Decls[3].(*ast.FuncDecl).Doc)
	if name != "Op" || !reflect.DeepEqual(except, []string{"OpBegin", "OpNoop"}) {
		t.Errorf("JournalExhaustive = %q %v, want Op [OpBegin OpNoop]", name, except)
	}
	name, except = directive.JournalExhaustive(f.Decls[4].(*ast.FuncDecl).Doc)
	if name != "Op" || except != nil {
		t.Errorf("JournalExhaustive = %q %v, want Op []", name, except)
	}
}

func TestImmutablePublishSentinel(t *testing.T) {
	src := `package p

//lint:immutable-after-publish
type Avail struct{}

//lint:publish Avail republish under the write lock
func refresh() {}

//lint:sentinel
var errSentinel = nil
`
	f := parse(t, src)
	if !directive.IsImmutableAfterPublish(f.Decls[0].(*ast.GenDecl).Doc) {
		t.Error("immutable-after-publish marker not recognized")
	}
	if got := directive.PublishType(f.Decls[1].(*ast.FuncDecl).Doc); got != "Avail" {
		t.Errorf("PublishType = %q, want Avail", got)
	}
	if !directive.IsSentinel(f.Decls[2].(*ast.GenDecl).Doc) {
		t.Error("sentinel marker not recognized")
	}
	if directive.IsSentinel(f.Decls[0].(*ast.GenDecl).Doc) {
		t.Error("immutable marker misread as sentinel")
	}
}

func TestIsEpochGuarded(t *testing.T) {
	src := `package p

type s struct {
	a int //lint:epoch-guarded
	b int //lint:epoch-guarded capacity invalidation
	//lint:epoch-guarded
	c int
	d int // plain trailing comment
	e int //lint:epoch-guardedish
}
`
	f := parse(t, src)
	want := map[string]bool{"a": true, "b": true, "c": true, "d": false, "e": false}
	st := f.Decls[0].(*ast.GenDecl).Specs[0].(*ast.TypeSpec).Type.(*ast.StructType)
	for _, field := range st.Fields.List {
		name := field.Names[0].Name
		if got := directive.IsEpochGuarded(field); got != want[name] {
			t.Errorf("IsEpochGuarded(%s) = %v, want %v", name, got, want[name])
		}
	}
}

func TestIsFunnel(t *testing.T) {
	src := `package p

type task struct {
	State int //lint:funnel
	//lint:funnel the done count moves with State
	Done int
	Node int // not funnel-written
	Other int //lint:funnel-ish
}

// setState is the funnel.
//
//lint:funnel
func (t *task) setState(s int) {}

// run calls the funnel.
func (t *task) run() {}
`
	f := parse(t, src)
	fields := f.Decls[0].(*ast.GenDecl).Specs[0].(*ast.TypeSpec).Type.(*ast.StructType).Fields.List
	for i, want := range []bool{true, true, false, false} {
		if got := directive.IsFunnel(fields[i].Doc, fields[i].Comment); got != want {
			t.Errorf("field %s: IsFunnel = %v, want %v", fields[i].Names[0].Name, got, want)
		}
	}
	if !directive.IsFunnel(f.Decls[1].(*ast.FuncDecl).Doc) {
		t.Error("funnel method marker not recognized")
	}
	if directive.IsFunnel(f.Decls[2].(*ast.FuncDecl).Doc) {
		t.Error("plain method read as a funnel")
	}
}
