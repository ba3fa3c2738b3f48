// Command docscheck is the documentation and exported-surface gate
// run by scripts/check.sh. It type-checks the repository and fails
// (exit status 1) when
//
//  1. an exported top-level identifier of a non-main package of the
//     root module lacks a doc comment, or such a package lacks a
//     package comment;
//  2. an exported top-level identifier under internal/ has no non-test
//     reference and no entry in allowlist.txt (next to this file)
//     naming its kind and why it stays, or an entry names an
//     identifier that is gone or referenced;
//  3. an unexported top-level identifier, method or struct field
//     declared in a non-test file of the root module has no non-test
//     reference (main and init excepted);
//  4. a relative link in a Markdown file does not resolve.
//
// References resolve by type: a reference is the object go/types
// resolves an identifier to, so a call of other.U.Count does not
// count for lib.T.Count, and a field or method of an instantiated
// generic type counts for its generic declaration. A method also
// counts as referenced when its receiver type implements an interface
// that has the method, declared in a checked package or in a package
// one imports (fmt.Stringer, json.Marshaler). The bench/ module, which has its own go.mod, is a
// consumer that cannot change along with the library: it is
// type-checked against the same root packages, its in-package tests
// included, and it is never audited.
//
// Usage:
//
//	go run ./internal/tools/docscheck [-root dir]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// allowlistPath is the allowlist's location relative to the root.
const allowlistPath = "internal/tools/docscheck/allowlist.txt"

// allowKinds are the reasons an unreferenced export may stay; the
// allowlist's header explains each.
var allowKinds = map[string]bool{"paper": true, "ablation": true, "oracle": true, "interface": true}

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	findings := check(*root)
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// pkg is one type-checked package.
type pkg struct {
	dir, name string // dir is slash-separated, relative to its module
	module    bool   // in the root module, where tests do not count
	files     []*ast.File
	types     *types.Package
	info      *types.Info
}

// check runs every invariant over the tree at root.
func check(root string) []string {
	fset := token.NewFileSet()
	pkgs, err := load(fset, root)
	if err != nil {
		return []string{err.Error()}
	}
	var findings []string
	for _, p := range pkgs {
		if p.module && p.name != "main" {
			findings = append(findings, checkPackageDocs(fset, p)...)
		}
	}
	used, ifaces := uses(pkgs)
	findings = append(findings, checkUnused(fset, root, pkgs, used, ifaces)...)
	findings = append(findings, checkUnexported(fset, pkgs, used, ifaces)...)
	return append(findings, checkMarkdownLinks(root)...)
}

// listed is the part of a go list -json record that load reads.
type listed struct {
	Dir, ImportPath, Name string
	Standard              bool
	Module                struct{ Dir string }
	GoFiles, TestGoFiles  []string
}

// load type-checks the root module's packages from their non-test
// files, then the bench module's packages with their in-package tests,
// each after its dependencies in go list's order. Standard packages
// come from export data. A method's receiver type is not a use of the
// type.
func load(fset *token.FileSet, root string) ([]*pkg, error) {
	std := importer.Default()
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}
	var pkgs []*pkg
	for _, mod := range []string{".", "bench"} {
		if _, err := os.Stat(filepath.Join(root, mod, "go.mod")); mod != "." && err != nil {
			continue
		}
		list, err := goList(root, mod)
		if err != nil {
			return nil, err
		}
		for _, l := range list {
			if l.Standard || checked[l.ImportPath] != nil {
				continue
			}
			rel, _ := filepath.Rel(l.Module.Dir, l.Dir) // both absolute
			p := &pkg{dir: filepath.ToSlash(rel), name: l.Name, module: mod == "."}
			names := l.GoFiles
			if !p.module {
				names = append(names, l.TestGoFiles...)
			}
			for _, n := range names {
				f, err := parser.ParseFile(fset, filepath.Join(root, mod, rel, n), nil, parser.ParseComments)
				if err != nil {
					return nil, err
				}
				p.files = append(p.files, f)
			}
			p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
			if p.types, err = conf.Check(l.ImportPath, fset, p.files, p.info); err != nil {
				return nil, fmt.Errorf("type-check %s: %v", l.ImportPath, err)
			}
			for _, f := range p.files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
						delete(p.info.Uses, baseType(fd.Recv.List[0].Type))
					}
				}
			}
			checked[l.ImportPath] = p.types
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

// goList lists the packages of the module in dir, relative to root,
// and all their dependencies, each after its own. It never downloads.
func goList(root, dir string) ([]listed, error) {
	cmd := exec.Command("go", "list", "-C", filepath.Join(root, dir), "-deps", "-json", "./...")
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var list []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var l listed
		if err := dec.Decode(&l); err == io.EOF {
			return list, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		list = append(list, l)
	}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

// Import implements types.Importer.
func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// eachExport calls fn for every exported top-level identifier of f:
// its name, its kind, the receiver's base type name ("" for none) and
// whether it is documented. For grouped const/var/type declarations a
// doc comment on either the group or the individual spec counts,
// mirroring godoc.
func eachExport(f *ast.File, fn func(id *ast.Ident, kind, recv string, doc bool)) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				fn(d.Name, "function", "", d.Doc != nil)
				continue
			}
			fn(d.Name, "method", baseType(d.Recv.List[0].Type).Name, d.Doc != nil)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						fn(s.Name, "type", "", d.Doc != nil || s.Doc != nil)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							fn(n, "value", "", d.Doc != nil || s.Doc != nil || s.Comment != nil)
						}
					}
				}
			}
		}
	}
}

// baseType is the type name of a method receiver: T for T, *T, T[P]
// and T[P, Q].
func baseType(e ast.Expr) *ast.Ident {
	switch t := e.(type) {
	case *ast.StarExpr:
		return baseType(t.X)
	case *ast.IndexExpr:
		return baseType(t.X)
	case *ast.IndexListExpr:
		return baseType(t.X)
	}
	return e.(*ast.Ident)
}

// checkPackageDocs reports exported identifiers without doc comments,
// plus a missing package comment. Methods on unexported types are
// invisible in godoc and therefore exempt.
func checkPackageDocs(fset *token.FileSet, p *pkg) []string {
	var findings []string
	hasPkgDoc := false
	for _, f := range p.files {
		hasPkgDoc = hasPkgDoc || f.Doc != nil
		eachExport(f, func(id *ast.Ident, kind, recv string, doc bool) {
			if !doc && (recv == "" || ast.IsExported(recv)) {
				at := fset.Position(id.Pos())
				findings = append(findings, fmt.Sprintf("%s:%d: exported %s %s has no doc comment",
					at.Filename, at.Line, kind, id.Name))
			}
		})
	}
	if !hasPkgDoc {
		findings = append(findings, fmt.Sprintf("%s: package %s has no package comment", p.dir, p.name))
	}
	return findings
}

// uses collects the objects that the checked files use, a generic
// method or field by its origin, and every interface with methods that
// a checked package, or a package one imports, declares at package
// level.
func uses(pkgs []*pkg) (map[types.Object]bool, []*types.Interface) {
	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			used[origin(obj)] = true
		}
		for _, q := range append([]*types.Package{p.types}, p.types.Imports()...) {
			if seen[q] {
				continue
			}
			seen[q] = true
			for _, name := range q.Scope().Names() {
				if it, ok := q.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	return used, ifaces
}

// origin maps a method or field of an instantiated generic type to its
// generic declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// implements reports whether method fn is a method of one of ifaces
// that its receiver type T, or *T, implements.
func implements(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	for _, it := range ifaces {
		if m, _, _ := types.LookupFieldOrMethod(it, false, fn.Pkg(), fn.Name()); m != nil &&
			(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
			return true
		}
	}
	return false
}

// checkUnused reports exports under internal/ that no non-test file
// references and the allowlist does not name, and allowlist entries
// that are malformed, gone or referenced.
func checkUnused(fset *token.FileSet, root string, pkgs []*pkg, used map[types.Object]bool, ifaces []*types.Interface) []string {
	file := filepath.Join(root, filepath.FromSlash(allowlistPath))
	allow, findings := readAllowlist(file)
	seen := map[string]bool{}
	for _, p := range pkgs {
		short, ok := strings.CutPrefix(p.dir, "internal/")
		if !ok || !p.module || p.name == "main" {
			continue
		}
		for _, f := range p.files {
			eachExport(f, func(id *ast.Ident, _, recv string, _ bool) {
				obj := p.info.Defs[id]
				referenced := used[obj] || recv != "" && implements(obj.(*types.Func), ifaces)
				name := short + "." + strings.TrimPrefix(recv+"."+id.Name, ".")
				seen[name] = true
				line, listed := allow[name]
				switch {
				case !referenced && !listed:
					at := fset.Position(id.Pos())
					findings = append(findings, fmt.Sprintf("%s:%d: exported %s has no non-test reference; delete it or add it to %s",
						at.Filename, at.Line, name, allowlistPath))
				case referenced && listed:
					findings = append(findings, fmt.Sprintf("%s:%d: allowlisted %s is referenced; drop its entry", file, line, name))
				}
			})
		}
	}
	var stale []string
	for name, line := range allow {
		if !seen[name] {
			stale = append(stale, fmt.Sprintf("%s:%d: allowlisted %s is not an exported identifier under internal/", file, line, name))
		}
	}
	sort.Strings(stale)
	return append(findings, stale...)
}

// checkUnexported reports the unexported top-level identifiers,
// methods and struct fields of the root module's non-test files that
// no non-test file references, in source order; nothing is
// allowlisted.
func checkUnexported(fset *token.FileSet, pkgs []*pkg, used map[types.Object]bool, ifaces []*types.Interface) []string {
	type finding struct {
		at  token.Position
		msg string
	}
	var unused []finding
	for _, p := range pkgs {
		if !p.module {
			continue
		}
		for id, obj := range p.info.Defs {
			if obj == nil || obj.Exported() || id.Name == "_" || used[obj] {
				continue
			}
			kind := unexportedKind(obj, p)
			if kind == "" || kind == "method" && implements(obj.(*types.Func), ifaces) {
				continue
			}
			at := fset.Position(obj.Pos())
			unused = append(unused, finding{at, fmt.Sprintf("%s:%d: unexported %s %s.%s has no non-test reference; delete it",
				at.Filename, at.Line, kind, p.name, obj.Name())})
		}
	}
	sort.Slice(unused, func(i, j int) bool {
		a, b := unused[i].at, unused[j].at
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
	})
	findings := make([]string, len(unused))
	for i, f := range unused {
		findings[i] = f.msg
	}
	return findings
}

// unexportedKind names the kind of declaration obj is when the gate
// audits it: a package-level function, var, const or type, a method or
// a struct field. It is "" for anything else: locals, parameters,
// embedded fields (used through what they promote), and init and a
// command's main, which the runtime calls.
func unexportedKind(obj types.Object, p *pkg) string {
	top := obj.Parent() == p.types.Scope()
	switch o := obj.(type) {
	case *types.Var:
		if o.IsField() && !o.Embedded() {
			return "field"
		} else if top {
			return "var"
		}
	case *types.Func:
		if o.Type().(*types.Signature).Recv() != nil {
			return "method"
		} else if top && o.Name() != "init" && (o.Name() != "main" || p.name != "main") {
			return "function"
		}
	case *types.Const:
		if top {
			return "const"
		}
	case *types.TypeName:
		if top {
			return "type"
		}
	}
	return ""
}

// readAllowlist maps each allowlisted identifier to its line. An entry
// is the identifier, its kind and a free-text reason; blank lines and
// lines starting with # are ignored. A missing file is an empty list.
func readAllowlist(file string) (map[string]int, []string) {
	allow := map[string]int{}
	data, err := os.ReadFile(file)
	if os.IsNotExist(err) {
		return allow, nil
	} else if err != nil {
		return allow, []string{err.Error()}
	}
	var findings []string
	for i, line := range strings.Split(string(data), "\n") {
		n, f := i+1, strings.Fields(line)
		switch {
		case len(f) == 0 || strings.HasPrefix(f[0], "#"):
		case len(f) < 3:
			findings = append(findings, fmt.Sprintf("%s:%d: allowlist entry needs a name, a kind and a reason", file, n))
		case !allowKinds[f[1]]:
			findings = append(findings, fmt.Sprintf("%s:%d: allowlist kind %q is not paper, ablation, oracle or interface", file, n, f[1]))
		case allow[f[0]] != 0:
			findings = append(findings, fmt.Sprintf("%s:%d: %s is already listed on line %d", file, n, f[0], allow[f[0]]))
		default:
			allow[f[0]] = n
		}
	}
	return allow, findings
}

// mdLink matches inline Markdown links and images; the first capture
// group is the destination.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkMarkdownLinks walks the repository for Markdown files and
// verifies that every relative link destination exists on disk.
func checkMarkdownLinks(root string) []string {
	var findings []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" || (name == "related" && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for lineNo, line := range strings.Split(string(data), "\n") {
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				// Absolute URLs, mail links and absolute paths point
				// outside the checkout; a same-file anchor is empty.
				dest, _, _ := strings.Cut(m[1], "#")
				if dest == "" || strings.Contains(dest, "://") || strings.HasPrefix(dest, "mailto:") || strings.HasPrefix(dest, "/") {
					continue
				}
				if _, err := os.Stat(filepath.Join(filepath.Dir(path), dest)); err != nil {
					findings = append(findings, fmt.Sprintf("%s:%d: broken link %q", path, lineNo+1, m[1]))
				}
			}
		}
		return nil
	})
	if err != nil {
		findings = append(findings, fmt.Sprintf("markdown scan: %v", err))
	}
	return findings
}
