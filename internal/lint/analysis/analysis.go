// Package analysis is the part of the go/analysis API the schedlint
// analyzers use, plus the one fact store and the one pass runner that
// both the `go vet` driver (cmd/schedlint) and the fixture harness
// (linttest) run them with.
//
// Facts are object facts only, keyed by (package path, object key,
// fact type). The object key is the name of a package-level object, or
// Type.Member for a method or a field of a package-level named type;
// every //lint: marker the analyzers export a fact for sits on one of
// these. Exporting a fact on any other object is an error.
package analysis

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
)

// An Analyzer is one static check: Run inspects one package through
// its Pass. FactTypes lists the fact types it imports and exports.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass) (interface{}, error)
	FactTypes []Fact
}

// A Fact is an analyzer's gob-encodable finding about an object,
// exported by the object's package and imported by its clients. Fact
// types are pointers.
type Fact interface {
	AFact()
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	Report           func(Diagnostic)
	ImportObjectFact func(obj types.Object, fact Fact) bool
	ExportObjectFact func(obj types.Object, fact Fact)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (pass *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	pass.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, with optional mechanical fixes.
type Diagnostic struct {
	Pos, End       token.Pos
	Message        string
	SuggestedFixes []SuggestedFix
}

// A SuggestedFix is a set of edits applied together or not at all.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// A TextEdit replaces the source in [Pos, End) with NewText.
type TextEdit struct {
	Pos, End token.Pos
	NewText  []byte
}

// Result is what one analyzer reported on one package.
type Result struct {
	Analyzer    *Analyzer
	Diagnostics []Diagnostic
	Err         error
}

// Check type-checks one package's files under conf and applies the
// analyzers to it in order, importing and exporting facts through
// facts. It returns the package and one Result per analyzer; the error
// is the type checker's.
func Check(conf *types.Config, fset *token.FileSet, path string, files []*ast.File, analyzers []*Analyzer, facts *Facts) (*types.Package, []Result, error) {
	info := &types.Info{
		Types:        map[ast.Expr]types.TypeAndValue{},
		Defs:         map[*ast.Ident]types.Object{},
		Uses:         map[*ast.Ident]types.Object{},
		Implicits:    map[ast.Node]types.Object{},
		Instances:    map[*ast.Ident]types.Instance{},
		Scopes:       map[ast.Node]*types.Scope{},
		Selections:   map[*ast.SelectorExpr]*types.Selection{},
		FileVersions: map[*ast.File]string{},
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	results := make([]Result, len(analyzers))
	for i, a := range analyzers {
		res := &results[i]
		res.Analyzer = a
		pass := &Pass{
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(d Diagnostic) { res.Diagnostics = append(res.Diagnostics, d) },
			ImportObjectFact: func(obj types.Object, fact Fact) bool {
				return facts.importFact(obj, fact)
			},
			ExportObjectFact: func(obj types.Object, fact Fact) {
				if err := facts.exportFact(pkg, obj, fact); err != nil && res.Err == nil {
					res.Err = fmt.Errorf("%s: %v", a.Name, err)
				}
			},
		}
		if _, err := a.Run(pass); err != nil && res.Err == nil {
			res.Err = err
		}
	}
	return pkg, results, nil
}

// Facts is the object-fact store of one run: the facts read from the
// imported packages plus the ones the analyzed package exports.
type Facts struct {
	byPkg map[string]map[factKey]Fact                // package path -> facts
	keys  map[*types.Package]map[types.Object]string // object key index, built on demand
}

// NewFacts returns an empty store for the facts of the analyzers,
// whose fact types it registers with gob.
func NewFacts(analyzers ...*Analyzer) *Facts {
	for _, a := range analyzers {
		for _, f := range a.FactTypes {
			gob.Register(f)
		}
	}
	return &Facts{}
}

type factKey struct {
	obj string
	typ reflect.Type
}

// wireFact is one fact as gob carries it between vet units.
type wireFact struct {
	Pkg, Obj string
	Fact     Fact
}

func (s *Facts) importFact(obj types.Object, fact Fact) bool {
	if obj == nil || obj.Pkg() == nil || s.byPkg[obj.Pkg().Path()] == nil {
		return false
	}
	key, ok := s.objectKey(obj)
	if !ok {
		return false
	}
	stored, ok := s.byPkg[obj.Pkg().Path()][factKey{key, reflect.TypeOf(fact)}]
	if ok {
		reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	}
	return ok
}

func (s *Facts) exportFact(pkg *types.Package, obj types.Object, fact Fact) error {
	if obj == nil || obj.Pkg() != pkg {
		return fmt.Errorf("fact %T on %v, which package %s does not declare", fact, obj, pkg.Path())
	}
	key, ok := s.objectKey(obj)
	if !ok {
		return fmt.Errorf("fact %T on %v: only package-level objects and the methods and fields of package-level types carry facts", fact, obj)
	}
	s.put(pkg.Path(), key, fact)
	return nil
}

func (s *Facts) put(pkg, obj string, fact Fact) {
	if s.byPkg == nil {
		s.byPkg = map[string]map[factKey]Fact{}
	}
	if s.byPkg[pkg] == nil {
		s.byPkg[pkg] = map[factKey]Fact{}
	}
	s.byPkg[pkg][factKey{obj, reflect.TypeOf(fact)}] = fact
}

// objectKey returns obj's fact key: the name of a package-level object,
// or Type.Member for a method or field of a package-level named type.
func (s *Facts) objectKey(obj types.Object) (string, bool) {
	if s.keys == nil {
		s.keys = map[*types.Package]map[types.Object]string{}
	}
	index, ok := s.keys[obj.Pkg()]
	if !ok {
		index = map[types.Object]string{}
		scope := obj.Pkg().Scope()
		for _, name := range scope.Names() {
			o := scope.Lookup(name)
			index[o] = name
			named, ok := o.Type().(*types.Named)
			if _, isType := o.(*types.TypeName); !isType || !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				index[named.Method(i)] = name + "." + named.Method(i).Name()
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					index[st.Field(i)] = name + "." + st.Field(i).Name()
				}
			}
		}
		s.keys[obj.Pkg()] = index
	}
	key, ok := index[obj]
	return key, ok
}

// Read merges gob-encoded facts, as Encode writes them, into the store.
func (s *Facts) Read(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	var wire []wireFact
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wire); err != nil {
		return fmt.Errorf("decoding facts: %v", err)
	}
	for _, w := range wire {
		s.put(w.Pkg, w.Obj, w.Fact)
	}
	return nil
}

// Encode gob-encodes every fact in the store, the imported ones
// included, in a fixed order: a vet unit sees only its direct imports'
// fact files, so each file carries its dependencies' facts onward.
func (s *Facts) Encode() ([]byte, error) {
	var wire []wireFact
	for pkg, facts := range s.byPkg {
		for k, f := range facts {
			wire = append(wire, wireFact{pkg, k.obj, f})
		}
	}
	if len(wire) == 0 {
		return nil, nil
	}
	sort.Slice(wire, func(i, j int) bool {
		x, y := wire[i], wire[j]
		if x.Pkg != y.Pkg {
			return x.Pkg < y.Pkg
		}
		if x.Obj != y.Obj {
			return x.Obj < y.Obj
		}
		return reflect.TypeOf(x.Fact).String() < reflect.TypeOf(y.Fact).String()
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return nil, fmt.Errorf("encoding facts: %v", err)
	}
	return buf.Bytes(), nil
}
