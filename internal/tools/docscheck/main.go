// Command docscheck is the documentation and exported-surface gate
// run by scripts/check.sh. It walks the repository and fails (exit
// status 1) when
//
//  1. an exported top-level identifier of a non-main package of the
//     root module lacks a doc comment, or such a package lacks a
//     package comment;
//  2. an exported top-level identifier under internal/ has no non-test
//     reference and no entry in allowlist.txt (next to this file)
//     naming its kind and why it stays, or an entry names an
//     identifier that is gone or referenced;
//  3. a relative link in a Markdown file does not resolve.
//
// The reference scan matches names, not types: a package-level
// identifier is referenced by its bare name in its own package or as
// pkg.Name where the package is imported, and a method by any selector
// .Name. A directory with its own go.mod (bench/) is a separate module
// that cannot change along with the library: all its files, tests
// included, count as references, and it is never audited.
//
// Usage:
//
//	go run ./internal/tools/docscheck [-root dir]
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
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

// pkg is one package directory's parsed files.
type pkg struct {
	dir, path, name string // dir is slash-separated, relative to the root
	module          bool   // in the root module, where tests do not count
	files           []*ast.File
}

// check runs every invariant over the tree at root.
func check(root string) []string {
	fset := token.NewFileSet()
	pkgs, err := loadTree(fset, root)
	if err != nil {
		return []string{err.Error()}
	}
	var findings []string
	for _, p := range pkgs {
		if p.module && p.name != "main" {
			findings = append(findings, checkPackageDocs(fset, p)...)
		}
	}
	findings = append(findings, checkUnused(fset, root, pkgs)...)
	return append(findings, checkMarkdownLinks(root)...)
}

// loadTree parses every package directory under root, skipping
// testdata and directories starting with "." or "_" as the go tool
// does. Test files are parsed only in nested modules.
func loadTree(fset *token.FileSet, root string) ([]*pkg, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(gomod), "\n") {
		if p, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(p)
		}
	}
	var pkgs []*pkg
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		pk := &pkg{dir: filepath.ToSlash(rel), path: modPath, module: true}
		if pk.dir != "." {
			pk.path += "/" + pk.dir
		}
		for dir := pk.dir; dir != "." && pk.module; dir = path.Dir(dir) {
			_, err := os.Stat(filepath.Join(root, filepath.FromSlash(dir), "go.mod"))
			pk.module = err != nil
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range entries {
			n := e.Name()
			if e.IsDir() || !strings.HasSuffix(n, ".go") || (pk.module && strings.HasSuffix(n, "_test.go")) {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(p, n), nil, parser.ParseComments)
			if err != nil {
				return err
			}
			if !strings.HasSuffix(n, "_test.go") {
				pk.name = f.Name.Name
			}
			pk.files = append(pk.files, f)
		}
		if len(pk.files) > 0 {
			pkgs = append(pkgs, pk)
		}
		return nil
	})
	return pkgs, err
}

// eachExport calls fn for every exported top-level identifier of f:
// its name (Recv.Name for a method), its kind, the receiver's base
// type name ("" for none), its position and whether it is documented.
// For grouped const/var/type declarations a doc comment on either the
// group or the individual spec counts, mirroring godoc.
func eachExport(f *ast.File, fn func(name, kind, recv string, pos token.Pos, doc bool)) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				fn(d.Name.Name, "function", "", d.Pos(), d.Doc != nil)
				continue
			}
			recv := baseType(d.Recv.List[0].Type)
			fn(recv+"."+d.Name.Name, "method", recv, d.Pos(), d.Doc != nil)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						fn(s.Name.Name, "type", "", s.Pos(), d.Doc != nil || s.Doc != nil)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							fn(n.Name, "value", "", n.Pos(), d.Doc != nil || s.Doc != nil || s.Comment != nil)
						}
					}
				}
			}
		}
	}
}

// baseType is the type name of a method receiver: T for T, *T, T[P]
// and T[P, Q].
func baseType(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return baseType(t.X)
	case *ast.IndexExpr:
		return baseType(t.X)
	case *ast.IndexListExpr:
		return baseType(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}

// checkPackageDocs reports exported identifiers without doc comments,
// plus a missing package comment. Methods on unexported types are
// invisible in godoc and therefore exempt.
func checkPackageDocs(fset *token.FileSet, p *pkg) []string {
	var findings []string
	hasPkgDoc := false
	for _, f := range p.files {
		hasPkgDoc = hasPkgDoc || f.Doc != nil
		eachExport(f, func(name, kind, recv string, pos token.Pos, doc bool) {
			if !doc && (recv == "" || ast.IsExported(recv)) {
				at := fset.Position(pos)
				findings = append(findings, fmt.Sprintf("%s:%d: exported %s %s has no doc comment",
					at.Filename, at.Line, kind, strings.TrimPrefix(name, recv+".")))
			}
		})
	}
	if !hasPkgDoc {
		findings = append(findings, fmt.Sprintf("%s: package %s has no package comment", p.dir, p.name))
	}
	return findings
}

// references collects what the tree's parsed files name: every
// "importpath.Name" a file reaches bare (its own package) or through an
// import, and every selector name. Declared names are not references:
// a declaration's own name, a method's receiver type and the names in
// field lists are skipped.
func references(pkgs []*pkg) (qualified, selectors map[string]bool) {
	qualified, selectors = map[string]bool{}, map[string]bool{}
	names := map[string]string{} // import path -> package name
	for _, p := range pkgs {
		names[p.path] = p.name
	}
	for _, p := range pkgs {
		for _, f := range p.files {
			imports := map[string]string{}
			for _, is := range f.Imports {
				ip := strings.Trim(is.Path.Value, `"`)
				local := names[ip]
				switch {
				case is.Name != nil:
					local = is.Name.Name
				case local == "":
					local = path.Base(ip)
				}
				imports[local] = ip
			}
			skip := map[*ast.Ident]bool{f.Name: true}
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.ImportSpec:
					return false
				case *ast.FuncDecl:
					skip[x.Name] = true
					if x.Recv != nil {
						ast.Inspect(x.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								skip[id] = true
							}
							return true
						})
					}
				case *ast.TypeSpec:
					skip[x.Name] = true
				case *ast.ValueSpec:
					for _, id := range x.Names {
						skip[id] = true
					}
				case *ast.Field:
					for _, id := range x.Names {
						skip[id] = true
					}
				case *ast.SelectorExpr:
					selectors[x.Sel.Name] = true
					skip[x.Sel] = true
					if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
						qualified[imports[id.Name]+"."+x.Sel.Name] = true
						skip[id] = true
					}
				case *ast.Ident:
					if !skip[x] {
						qualified[p.path+"."+x.Name] = true
					}
				}
				return true
			})
		}
	}
	return qualified, selectors
}

// checkUnused reports exports under internal/ that no non-test file
// references and the allowlist does not name, and allowlist entries
// that are malformed, gone or referenced.
func checkUnused(fset *token.FileSet, root string, pkgs []*pkg) []string {
	file := filepath.Join(root, filepath.FromSlash(allowlistPath))
	allow, findings := readAllowlist(file)
	qualified, selectors := references(pkgs)
	seen := map[string]bool{}
	for _, p := range pkgs {
		short, ok := strings.CutPrefix(p.dir, "internal/")
		if !ok || !p.module || p.name == "main" {
			continue
		}
		for _, f := range p.files {
			eachExport(f, func(name, _, recv string, pos token.Pos, _ bool) {
				used := qualified[p.path+"."+name]
				if recv != "" {
					used = selectors[strings.TrimPrefix(name, recv+".")]
				}
				name = short + "." + name
				seen[name] = true
				line, listed := allow[name]
				switch {
				case !used && !listed:
					at := fset.Position(pos)
					findings = append(findings, fmt.Sprintf("%s:%d: exported %s has no non-test reference; delete it or add it to %s",
						at.Filename, at.Line, name, allowlistPath))
				case used && listed:
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
