package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// retainedTypes are the streaming payload types whose retention defeats
// the out-of-core pipeline: a held *llc.Exchange pins every attempt's
// jframes and wire bytes; a held *unify.JFrame pins its wire bytes.
// PR 4's SegObs bug retained exchanges per observed TCP segment, making
// analyzer memory O(trace) and erasing the streaming pipeline's whole
// point. Values count the same as pointers — a copied JFrame still
// pins its backing arrays.
var retainedTypes = map[string]bool{
	"repro/internal/unify.JFrame": true,
	"repro/internal/llc.Exchange": true,
}

// RetainFrame flags declarations in the streaming packages
// (internal/analysis, internal/transport, internal/serve) that can
// retain unify.JFrame or llc.Exchange past the Observe call that
// delivered it: struct fields, package-level variables, and named types
// whose underlying type contains either payload type. Pass methods
// receive these pointers transiently — copy the scalar fields you need
// (as transport's per-sequence state does) instead of storing the pointer.
//
// Bounded holds that participate in the reference-counted ownership
// contract are sanctioned automatically: a named struct whose methods
// call both Retain and Release on the payload type it stores (the
// exchangeDeferral sliding window, the viz pass's clamped window, the
// monitor's pending buffer) is holding a counted reference, not leaking
// a borrow. A holder that only Retains — or whose Retain/Release touch
// a different payload type than the one stored — is still flagged.
// Residual special cases can carry //jiglint:allow retainframe with a
// justification.
var RetainFrame = &Analyzer{
	Name: "retainframe",
	Doc: "state that retains *unify.JFrame or *llc.Exchange\n\n" +
		"Reports struct fields, package vars and type definitions in\n" +
		"internal/analysis, internal/transport and internal/serve whose type\n" +
		"contains unify.JFrame or llc.Exchange (by pointer or value, including\n" +
		"slice, array, map and channel element positions). Copy the fields you\n" +
		"need in Observe, or hold a counted reference: a struct whose methods\n" +
		"Retain the payload on store and Release it on drop is sanctioned.",
	Scope: []string{"internal/analysis", "internal/transport", "internal/serve"},
	Run:   runRetainFrame,
}

// refContract records which halves of the ownership contract a holder
// type's methods exercise for one payload type.
type refContract struct {
	retain, release bool
}

func runRetainFrame(pass *Pass) error {
	info := pass.TypesInfo
	contracts := ownershipContracts(pass)
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		// Map each named struct's syntax node to its declared name, so a
		// retaining field can be excused by its holder's contract.
		holderOf := map[*ast.StructType]string{}
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				if sp, ok := spec.(*ast.TypeSpec); ok {
					if st, ok := sp.Type.(*ast.StructType); ok {
						holderOf[st] = sp.Name.Name
					}
				}
			}
		}
		// Struct fields, wherever the struct type appears.
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			holder := holderOf[st]
			for _, field := range st.Fields.List {
				t := info.Types[field.Type].Type
				name := retainedIn(t)
				if name == "" {
					continue
				}
				if c := contracts[holder][name]; c.retain && c.release {
					// The holder takes a reference on store and drops it
					// on removal — a counted hold, not a leaked borrow.
					continue
				}
				pass.Report(Diagnostic{
					Pos: field.Pos(),
					Message: fmt.Sprintf(
						"struct field retains %s beyond the Observe call; copy the needed fields, or hold a counted reference (Retain on store, Release on drop)", name),
				})
			}
			return true
		})
		// Package-level vars and non-struct named types.
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch sp := spec.(type) {
				case *ast.ValueSpec:
					for _, id := range sp.Names {
						obj := info.Defs[id]
						if obj == nil {
							continue
						}
						if name := retainedIn(obj.Type()); name != "" {
							pass.Report(Diagnostic{
								Pos: id.Pos(),
								Message: fmt.Sprintf(
									"package variable %q retains %s for the process lifetime", id.Name, name),
							})
						}
					}
				case *ast.TypeSpec:
					// Struct underlyings are covered field-by-field above.
					if _, isStruct := sp.Type.(*ast.StructType); isStruct {
						continue
					}
					t := info.Types[sp.Type].Type
					if name := retainedIn(t); name != "" {
						pass.Report(Diagnostic{
							Pos: sp.Pos(),
							Message: fmt.Sprintf(
								"type %q retains %s; copy the needed fields instead", sp.Name.Name, name),
						})
					}
				}
			}
		}
	}
	return nil
}

// ownershipContracts scans every method in the package and records, per
// receiver type name and per payload type, whether the method set calls
// Retain and Release on that payload. A struct whose methods exercise
// both halves for the payload it stores holds counted references.
func ownershipContracts(pass *Pass) map[string]map[string]refContract {
	info := pass.TypesInfo
	contracts := map[string]map[string]refContract{}
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 || fd.Body == nil {
				continue
			}
			recv := receiverTypeName(fd.Recv.List[0].Type)
			if recv == "" {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Retain" && sel.Sel.Name != "Release") {
					return true
				}
				tv, ok := info.Types[sel.X]
				if !ok {
					return true
				}
				name := namedTypePath(tv.Type)
				if !retainedTypes[name] {
					return true
				}
				m := contracts[recv]
				if m == nil {
					m = map[string]refContract{}
					contracts[recv] = m
				}
				c := m[name]
				if sel.Sel.Name == "Retain" {
					c.retain = true
				} else {
					c.release = true
				}
				m[name] = c
				return true
			})
		}
	}
	return contracts
}

// receiverTypeName extracts the named type a method is declared on,
// stripping pointers and generic instantiations.
func receiverTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// retainedIn walks t's structure and returns the qualified name of the
// first retained payload type it contains, or "". Function and
// interface types do not retain (values merely pass through them), and
// named types from other packages are not expanded — a type that wraps
// an Exchange is flagged where it is declared.
func retainedIn(t types.Type) string {
	return retainedInSeen(t, map[types.Type]bool{})
}

func retainedInSeen(t types.Type, seen map[types.Type]bool) string {
	if t == nil || seen[t] {
		return ""
	}
	seen[t] = true
	if name := namedTypePath(t); retainedTypes[name] {
		return name
	}
	switch x := t.(type) {
	case *types.Pointer:
		return retainedInSeen(x.Elem(), seen)
	case *types.Slice:
		return retainedInSeen(x.Elem(), seen)
	case *types.Array:
		return retainedInSeen(x.Elem(), seen)
	case *types.Map:
		if n := retainedInSeen(x.Key(), seen); n != "" {
			return n
		}
		return retainedInSeen(x.Elem(), seen)
	case *types.Chan:
		return retainedInSeen(x.Elem(), seen)
	case *types.Struct:
		for i := 0; i < x.NumFields(); i++ {
			if n := retainedInSeen(x.Field(i).Type(), seen); n != "" {
				return n
			}
		}
	case *types.Named:
		// Only expand named types declared in the package under
		// analysis context implicitly: expanding everything would blame
		// the use site for a definition flagged elsewhere. Local named
		// types are reached through their TypeSpec directly.
		return ""
	}
	return ""
}
