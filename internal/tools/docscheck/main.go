// Command docscheck is the documentation gate run by scripts/check.sh.
//
// It enforces two invariants over the repository:
//
//  1. Every exported top-level identifier (types, funcs, methods,
//     consts, vars) in the audited packages carries a doc comment, and
//     every audited package has a package comment. The audited set is
//     given as directory arguments; scripts/check.sh lists the
//     packages it audits.
//  2. Every relative link in the repository's Markdown files resolves
//     to an existing file (anchors are stripped; absolute URLs are
//     ignored).
//
// Usage:
//
//	go run ./internal/tools/docscheck [-root dir] pkgdir...
//
// Exit status is non-zero if any finding is reported, making the tool
// suitable as a CI/pre-commit step.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	root := flag.String("root", ".", "repository root for the Markdown link scan")
	flag.Parse()

	var findings []string
	for _, dir := range flag.Args() {
		findings = append(findings, checkPackageDocs(dir)...)
	}
	findings = append(findings, checkMarkdownLinks(*root)...)

	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// checkPackageDocs parses the non-test Go files of one package
// directory and reports exported identifiers without doc comments,
// plus a missing package comment.
func checkPackageDocs(dir string) []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", dir, err)}
	}

	var findings []string
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, file := range pkg.Files {
			if file.Doc != nil {
				hasPkgDoc = true
			}
			for _, decl := range file.Decls {
				findings = append(findings, checkDecl(fset, decl)...)
			}
		}
		if !hasPkgDoc {
			findings = append(findings, fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
		}
	}
	return findings
}

// checkDecl reports exported names introduced by one top-level
// declaration that lack documentation. For grouped const/var/type
// declarations a doc comment on either the group or the individual
// spec satisfies the check, mirroring godoc's association rules.
func checkDecl(fset *token.FileSet, decl ast.Decl) []string {
	var findings []string
	undocumented := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		findings = append(findings, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}

	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && d.Doc == nil && exportedRecv(d) {
			kind := "function"
			if d.Recv != nil {
				kind = "method"
			}
			undocumented(d.Pos(), kind, d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
					undocumented(s.Pos(), "type", s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, name := range s.Names {
					if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						undocumented(name.Pos(), "value", name.Name)
					}
				}
			}
		}
	}
	return findings
}

// exportedRecv reports whether a function declaration is package-level
// or a method on an exported receiver type; methods on unexported
// types are invisible in godoc and therefore exempt.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
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
				dest := m[1]
				if skipLink(dest) {
					continue
				}
				if i := strings.IndexByte(dest, '#'); i >= 0 {
					dest = dest[:i]
					if dest == "" {
						continue // same-file anchor
					}
				}
				target := filepath.Join(filepath.Dir(path), dest)
				if _, err := os.Stat(target); err != nil {
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

// skipLink reports whether a link destination is out of scope for the
// existence check: absolute URLs, mail links, and absolute paths
// (which point outside the repository checkout).
func skipLink(dest string) bool {
	return strings.Contains(dest, "://") ||
		strings.HasPrefix(dest, "mailto:") ||
		strings.HasPrefix(dest, "/")
}
