// Package directive parses the control comments understood by the
// schedlint analyzers:
//
//	//lint:allow <analyzer>[,<analyzer>...] [reason]
//
// suppresses every diagnostic of the named analyzers for the whole file
// containing the comment (the escape hatch for the seeded RNG wrapper in
// internal/sim/rng.go and the wall-clock progress printing in cmd/), and
//
//	//lint:epoch-guarded
//
// on a struct field declaration marks the field as covered by the
// epoch-invalidation contract: any function in the package that writes
// the field must (directly or through intra-package calls) bump an
// `epoch` counter, which the epochbump analyzer enforces, and
//
//	//lint:pooled <Type>
//
// as a standalone comment inside a function body marks the function as
// the free-list release site for struct type <Type>: the poolreset
// analyzer requires it to reset every field of the type, except fields
// whose declaration carries
//
//	//lint:pooled-keep
//
// marking state that deliberately persists across pooled lives (bound
// callbacks, reusable map/slice storage).
//
// The concurrency and persistence contracts (PR 9) add:
//
//	//lint:guarded <mu>
//
// on a struct field, naming the sibling mutex field that guards it: the
// lockheld analyzer requires every read or write to happen inside a
// Lock/RLock region of that mutex or inside a *Locked function, and
//
//	//lint:locked <mu>
//
// on a function declaration, asserting the function runs with the named
// guard held (the explicit form of the *Locked naming convention), and
//
//	//lint:immutable-after-publish
//
// on a type declaration, marking values of the type frozen once handed
// to readers: the snapshotfree analyzer admits field/element writes only
// in the type's constructors and in functions marked
//
//	//lint:publish <Type>
//
// (the republish sites — writer-side rebuilds that run before the value
// is visible to readers). The journal symmetry contract uses
//
//	//lint:journal-ops          on the journal op enum type
//	//lint:journaled            on the service type whose Apply*/Update*
//	                            methods must journal their deltas
//	//lint:journal-append       on the append helper those methods must
//	                            (transitively) reach
//	//lint:journal-exhaustive <Type> [except C1,C2,...]
//	                            on decode/apply switches that must cover
//	                            every op constant (minus the exceptions)
//
// and the error-comparison contract uses
//
//	//lint:sentinel
//
// on a package-level error var declaration (or a whole var block),
// marking sentinels that must be compared with errors.Is, never == —
// the errcmp analyzer enforces it and suggests the rewrite. The
// state-funnel contract uses one marker in two places:
//
//	//lint:funnel
//
// on a struct field, marking state that only its funnel may write (a
// task's State, whose writer keeps per-job counts in step), and in the
// doc comment of a function or method of the same package, marking it
// as part of that funnel; the funnel analyzer enforces it.
//
// Alongside the file-level //lint:allow, an allow directive in a
// function or method's doc comment suppresses the named analyzers for
// that declaration only (the scoped escape hatch for intentional
// contract exceptions like Service.Slots handing out interior state).
package directive

import (
	"go/ast"
	"strings"
)

const (
	allowPrefix       = "//lint:allow"
	guardMarker       = "//lint:epoch-guarded"
	pooledPrefix      = "//lint:pooled"
	keepMarker        = "//lint:pooled-keep"
	guardedPrefix     = "//lint:guarded"
	lockedPrefix      = "//lint:locked"
	immutableMarker   = "//lint:immutable-after-publish"
	publishPrefix     = "//lint:publish"
	journalOpsMarker  = "//lint:journal-ops"
	journaledMarker   = "//lint:journaled"
	journalAppendMark = "//lint:journal-append"
	journalExhPrefix  = "//lint:journal-exhaustive"
	sentinelMarker    = "//lint:sentinel"
	funnelMarker      = "//lint:funnel"
)

// ParseAllow extracts the analyzer names from a single comment line. It
// returns nil when the comment is not an allow directive (including the
// malformed bare "//lint:allow" with no names). Names are separated by
// commas; anything after the first whitespace run following the name
// list is a free-form reason and is ignored.
func ParseAllow(text string) []string {
	rest, ok := strings.CutPrefix(text, allowPrefix)
	if !ok {
		return nil
	}
	// Require a separator so "//lint:allowed" style comments don't match.
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil
	}
	var names []string
	for _, n := range strings.Split(fields[0], ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// FileAllows reports whether any comment in f suppresses the named
// analyzer for the whole file. The directive is file-level: it may sit
// in the package doc comment, above any declaration, or on its own line.
func FileAllows(f *ast.File, analyzer string) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			for _, n := range ParseAllow(c.Text) {
				if n == analyzer {
					return true
				}
			}
		}
	}
	return false
}

// IsEpochGuarded reports whether a struct field declaration carries the
// //lint:epoch-guarded marker in its doc comment or trailing line
// comment.
func IsEpochGuarded(field *ast.Field) bool {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if isGuardComment(c.Text) {
				return true
			}
		}
	}
	return false
}

func isGuardComment(text string) bool {
	rest, ok := strings.CutPrefix(text, guardMarker)
	if !ok {
		return false
	}
	return rest == "" || rest[0] == ' ' || rest[0] == '\t' || rest[0] == ':'
}

// ParsePooled returns the type name of a //lint:pooled <Type> reset-site
// marker, or "" when the comment is not one. The marker must start the
// comment: prose that merely mentions the directive does not bind. A
// bare "//lint:pooled" with no type name returns "" too (malformed, and
// also how "//lint:pooled-keep" is excluded: '-' is not a separator).
func ParsePooled(text string) string {
	rest, ok := strings.CutPrefix(text, pooledPrefix)
	if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '\t') {
		return ""
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return ""
	}
	return fields[0]
}

// IsPooledKeep reports whether a struct field declaration carries the
// //lint:pooled-keep marker in its doc comment or trailing line comment,
// exempting the field from the poolreset full-reset requirement.
func IsPooledKeep(field *ast.Field) bool {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, keepMarker)
			if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t' || rest[0] == ':') {
				return true
			}
		}
	}
	return false
}

// prefixArg returns the first whitespace-separated argument of a
// "<prefix> <arg> [free-form reason]" directive comment, or "" when the
// comment is not that directive (including the malformed bare form —
// and, because '-' is not a separator, longer directives sharing the
// prefix never match).
func prefixArg(text, prefix string) string {
	rest, ok := strings.CutPrefix(text, prefix)
	if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '\t') {
		return ""
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return ""
	}
	return fields[0]
}

// hasMarker reports whether any comment of the groups is exactly the
// marker directive (optionally followed by a separator and free text).
func hasMarker(marker string, groups ...*ast.CommentGroup) bool {
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, marker)
			if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t' || rest[0] == ':') {
				return true
			}
		}
	}
	return false
}

// DeclAllows reports whether a declaration's doc comment suppresses the
// named analyzer for that declaration only: the scoped form of
// //lint:allow, used where a contract is intentionally broken at one
// site (an escape-hatch accessor, a constructor that owns its receiver
// exclusively) rather than for a whole file.
func DeclAllows(doc *ast.CommentGroup, analyzer string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		for _, n := range ParseAllow(c.Text) {
			if n == analyzer {
				return true
			}
		}
	}
	return false
}

// HeaderAllows reports whether the file's package doc comment
// suppresses the named analyzer for the whole file. The v2 analyzers
// (lockheld, snapshotfree, deltajournal, errcmp) use this narrower
// file-level check so that a declaration-level allow stays scoped to
// its declaration instead of silencing the file, as FileAllows does
// for the original suite.
func HeaderAllows(f *ast.File, analyzer string) bool {
	return DeclAllows(f.Doc, analyzer)
}

// GuardedMu returns the mutex field name a //lint:guarded <mu> marker on
// a struct field declaration names, or "" when the field carries none.
func GuardedMu(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if mu := prefixArg(c.Text, guardedPrefix); mu != "" {
				return mu
			}
		}
	}
	return ""
}

// LockedMu returns the guard a //lint:locked <mu> marker in a function's
// doc comment names, or "" when the function carries none.
func LockedMu(doc *ast.CommentGroup) string {
	if doc == nil {
		return ""
	}
	for _, c := range doc.List {
		if mu := prefixArg(c.Text, lockedPrefix); mu != "" {
			return mu
		}
	}
	return ""
}

// IsImmutableAfterPublish reports whether a type declaration carries the
// //lint:immutable-after-publish marker in the given comment groups
// (GenDecl doc, TypeSpec doc, or trailing line comment).
func IsImmutableAfterPublish(groups ...*ast.CommentGroup) bool {
	return hasMarker(immutableMarker, groups...)
}

// PublishType returns the type name a //lint:publish <Type> marker in a
// function's doc comment names, or "" when the function carries none.
func PublishType(doc *ast.CommentGroup) string {
	if doc == nil {
		return ""
	}
	for _, c := range doc.List {
		if t := prefixArg(c.Text, publishPrefix); t != "" {
			return t
		}
	}
	return ""
}

// IsJournalOps reports whether a type declaration carries the
// //lint:journal-ops marker.
func IsJournalOps(groups ...*ast.CommentGroup) bool {
	return hasMarker(journalOpsMarker, groups...)
}

// IsJournaled reports whether a type declaration carries the
// //lint:journaled marker.
func IsJournaled(groups ...*ast.CommentGroup) bool {
	return hasMarker(journaledMarker, groups...)
}

// IsJournalAppend reports whether a function declaration carries the
// //lint:journal-append marker in its doc comment.
func IsJournalAppend(doc *ast.CommentGroup) bool {
	return hasMarker(journalAppendMark, doc)
}

// JournalExhaustive returns the ops type name and exception list of a
// //lint:journal-exhaustive <Type> [except C1,C2] marker in a function's
// doc comment; typeName is "" when the function carries none.
func JournalExhaustive(doc *ast.CommentGroup) (typeName string, except []string) {
	if doc == nil {
		return "", nil
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, journalExhPrefix)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '\t') {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		typeName = fields[0]
		if len(fields) >= 3 && fields[1] == "except" {
			for _, n := range strings.Split(fields[2], ",") {
				if n = strings.TrimSpace(n); n != "" {
					except = append(except, n)
				}
			}
		}
		return typeName, except
	}
	return "", nil
}

// IsSentinel reports whether a var declaration carries the
// //lint:sentinel marker in any of the given comment groups (the GenDecl
// doc covers a whole var block; a ValueSpec doc or trailing comment
// covers one var).
func IsSentinel(groups ...*ast.CommentGroup) bool {
	return hasMarker(sentinelMarker, groups...)
}

// IsFunnel reports whether any of the comment groups carries the
// //lint:funnel marker: on a struct field (doc or trailing comment) it
// marks a funnel-written field, in a function's doc comment a funnel
// writer.
func IsFunnel(groups ...*ast.CommentGroup) bool {
	return hasMarker(funnelMarker, groups...)
}
