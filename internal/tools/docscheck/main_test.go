package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out a fixture repository under a fresh temporary
// directory: a root module named fix plus the given files, keyed by
// slash-separated path.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module fix\n\ngo 1.22\n"
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// lib is a documented internal package exporting Used, which the
// command in cmdUsesLib references, and whatever extra holds.
func lib(extra string) string {
	return "// Package lib is a fixture.\npackage lib\n\n// Used is referenced by the command.\nfunc Used() {}\n" + extra
}

const cmdUsesLib = "package main\n\nimport \"fix/internal/lib\"\n\nfunc main() { lib.Used() }\n"

// wantFindings runs the gate over root and requires one finding per
// substring in want, and no others.
func wantFindings(t *testing.T, root string, want ...string) {
	t.Helper()
	got := check(root)
	if len(got) != len(want) {
		t.Fatalf("findings %q, want %d matching %q", got, len(want), want)
	}
	for i, w := range want {
		if !strings.Contains(got[i], w) {
			t.Errorf("finding %q does not mention %q", got[i], w)
		}
	}
}

func TestCleanTreePasses(t *testing.T) {
	wantFindings(t, writeTree(t, map[string]string{
		"internal/lib/lib.go": lib("\n// T is used through a method call.\ntype T struct{}\n\n// M is called as a selector.\nfunc (T) M() {}\n"),
		"cmd/c/main.go":       "package main\n\nimport \"fix/internal/lib\"\n\nfunc main() { lib.Used(); var t lib.T; t.M() }\n",
		"README.md":           "See [the command](cmd/c/main.go) and [a site](https://example.com).\n",
	}))
}

func TestUnusedExportFails(t *testing.T) {
	wantFindings(t, writeTree(t, map[string]string{
		"internal/lib/lib.go": lib("\n// Unused is referenced by nothing.\nfunc Unused() {}\n"),
		"cmd/c/main.go":       cmdUsesLib,
	}), "exported lib.Unused has no non-test reference")
}

func TestTestOnlyReferenceFails(t *testing.T) {
	wantFindings(t, writeTree(t, map[string]string{
		"internal/lib/lib.go":      lib("\n// Tested is referenced only by a test.\nfunc Tested() {}\n"),
		"internal/lib/lib_test.go": "package lib\n\nimport \"testing\"\n\nfunc TestTested(t *testing.T) { Tested() }\n",
		"cmd/c/main.go":            cmdUsesLib,
	}), "exported lib.Tested has no non-test reference")
}

// A name referenced in another package's files does not count for a
// package-level identifier unless it is qualified by this package.
func TestSameNameElsewhereFails(t *testing.T) {
	wantFindings(t, writeTree(t, map[string]string{
		"internal/lib/lib.go":     lib("\n// Helper is only shadowed by other's Helper.\nfunc Helper() {}\n"),
		"internal/other/other.go": "// Package other is a fixture.\npackage other\n\n// Helper is used by the command.\nfunc Helper() {}\n",
		"cmd/c/main.go":           "package main\n\nimport (\n\t\"fix/internal/lib\"\n\t\"fix/internal/other\"\n)\n\nfunc main() { lib.Used(); other.Helper() }\n",
	}), "exported lib.Helper has no non-test reference")
}

// References resolve by type: a call of other.U.Count is not a
// reference to lib.T.Count, which only a test calls.
func TestSameNameMethodElsewhereFails(t *testing.T) {
	wantFindings(t, writeTree(t, map[string]string{
		"internal/lib/lib.go":      lib("\n// T is used.\ntype T struct{}\n\n// Count is called only by a test.\nfunc (T) Count() int { return 0 }\n"),
		"internal/lib/lib_test.go": "package lib\n\nimport \"testing\"\n\nfunc TestCount(t *testing.T) { T{}.Count() }\n",
		"internal/other/other.go":  "// Package other is a fixture.\npackage other\n\n// U is used by the command.\ntype U struct{}\n\n// Count is called by the command.\nfunc (U) Count() int { return 1 }\n",
		"cmd/c/main.go":            "package main\n\nimport (\n\t\"fix/internal/lib\"\n\t\"fix/internal/other\"\n)\n\nfunc main() { lib.Used(); _ = lib.T{}; other.U{}.Count() }\n",
	}), "exported lib.T.Count has no non-test reference")
}

// A method that implements an interface the module declares, or one
// of a package it imports (fmt.Stringer), is referenced without being
// called by name.
func TestInterfaceMethodPasses(t *testing.T) {
	wantFindings(t, writeTree(t, map[string]string{
		"internal/lib/lib.go": lib("\n// Shape is the command's view of a shape.\ntype Shape interface{ Area() int }\n\n" +
			"// Sq is a shape.\ntype Sq struct{}\n\n// Area implements Shape.\nfunc (*Sq) Area() int { return 1 }\n\n" +
			"// String implements fmt.Stringer.\nfunc (Sq) String() string { return \"sq\" }\n"),
		"cmd/c/main.go": "package main\n\nimport (\n\t\"fmt\"\n\n\t\"fix/internal/lib\"\n)\n\n" +
			"func main() { lib.Used(); var s lib.Shape = &lib.Sq{}; fmt.Println(s) }\n",
	}))
}

// A method's receiver is not a reference to its type: a type that
// nothing else names is unreferenced, whatever its methods implement.
func TestReceiverOnlyTypeFails(t *testing.T) {
	wantFindings(t, writeTree(t, map[string]string{
		"internal/lib/lib.go": lib("\n// Dead is named only by its method's receiver.\ntype Dead struct{}\n\n" +
			"// String implements fmt.Stringer.\nfunc (Dead) String() string { return \"\" }\n"),
		"cmd/c/main.go": "package main\n\nimport (\n\t\"fmt\"\n\n\t\"fix/internal/lib\"\n)\n\nfunc main() { lib.Used(); fmt.Println() }\n",
	}), "exported lib.Dead has no non-test reference")
}

// A struct field that non-test code never reads or writes is a
// finding, whatever a test does with it, and so is an unexported
// function only a test calls. Nothing can allowlist either.
func TestUnreferencedUnexportedFails(t *testing.T) {
	wantFindings(t, writeTree(t, map[string]string{
		"internal/lib/lib.go": lib("\n// Counter counts calls.\ntype Counter struct {\n\tn     int\n\tports int\n}\n\n" +
			"// Add counts one call.\nfunc (c *Counter) Add() int { c.n++; return c.n }\n\nfunc helper() int { return 1 }\n"),
		"internal/lib/lib_test.go": "package lib\n\nimport \"testing\"\n\n" +
			"func TestPorts(t *testing.T) { c := Counter{ports: 2}; c.ports = helper() }\n",
		"cmd/c/main.go": "package main\n\nimport \"fix/internal/lib\"\n\nfunc main() { lib.Used(); var c lib.Counter; c.Add() }\n",
		allowlistPath:   "lib.helper  oracle  the gate reads no entry for an unexported name\n",
	}), "allowlisted lib.helper is not an exported identifier",
		"lib.go:10: unexported field lib.ports has no non-test reference",
		"lib.go:16: unexported function lib.helper has no non-test reference")
}

// An unexported field or method of a generic type counts as
// referenced through an instantiation, and a method reached only
// through an interface it implements counts as referenced.
func TestUnexportedReferencesPass(t *testing.T) {
	wantFindings(t, writeTree(t, map[string]string{
		"internal/lib/lib.go": "// Package lib is a fixture.\npackage lib\n\ntype shape interface{ area() int }\n\ntype sq struct{}\n\n" +
			"func (sq) area() int { return 1 }\n\n// Box holds one value.\ntype Box[T any] struct{ v T }\n\n" +
			"func (b Box[T]) peek() T { return b.v }\n\n// Used is referenced by the command.\n" +
			"func Used() int {\n\tvar s shape = sq{}\n\treturn s.area() + Box[int]{v: 1}.peek()\n}\n",
		"cmd/c/main.go": cmdUsesLib,
	}))
}

func TestAllowlistedExportPasses(t *testing.T) {
	wantFindings(t, writeTree(t, map[string]string{
		"internal/lib/lib.go": lib("\n// Claim is a paper predicate only tests call.\nfunc Claim() bool { return true }\n"),
		"cmd/c/main.go":       cmdUsesLib,
		allowlistPath:         "# comment\n\nlib.Claim  paper  Thm 1: checked against simulation\n",
	}))
}

func TestSiblingModuleReferencePasses(t *testing.T) {
	wantFindings(t, writeTree(t, map[string]string{
		"internal/lib/lib.go": lib("\n// Measured is used only by the bench module's tests.\nfunc Measured() {}\n"),
		"cmd/c/main.go":       cmdUsesLib,
		"bench/go.mod":        "module fix/bench\n\ngo 1.22\n\nrequire fix v0.0.0\n\nreplace fix => ../\n",
		// The bench module is a consumer, never audited: its own
		// undocumented, unused exports are not findings.
		"bench/harness/h.go":      "package harness\n\nfunc Undocumented() {}\n",
		"bench/harness/h_test.go": "package harness\n\nimport (\n\t\"testing\"\n\n\t\"fix/internal/lib\"\n)\n\nfunc TestMeasured(t *testing.T) { lib.Measured() }\n",
	}))
}

// A bench call of another type's same-named method does not count.
func TestSiblingModuleOtherTypeFails(t *testing.T) {
	wantFindings(t, writeTree(t, map[string]string{
		"internal/lib/lib.go": lib("\n// T is used.\ntype T struct{}\n\n// Count is called by nothing.\nfunc (T) Count() int { return 0 }\n\n" +
			"// U is used.\ntype U struct{}\n\n// Count is called by the bench module.\nfunc (U) Count() int { return 1 }\n"),
		"cmd/c/main.go":      "package main\n\nimport \"fix/internal/lib\"\n\nfunc main() { lib.Used(); _ = lib.T{} }\n",
		"bench/go.mod":       "module fix/bench\n\ngo 1.22\n\nrequire fix v0.0.0\n\nreplace fix => ../\n",
		"bench/harness/h.go": "package harness\n\nimport \"fix/internal/lib\"\n\nvar _ = lib.U{}.Count()\n",
	}), "exported lib.T.Count has no non-test reference")
}

// A tree that does not type-check is a finding, not a pass.
func TestTypeErrorFails(t *testing.T) {
	wantFindings(t, writeTree(t, map[string]string{
		"internal/lib/lib.go": lib(""),
		"cmd/c/main.go":       "package main\n\nimport \"fix/internal/lib\"\n\nfunc main() { lib.Used(); lib.Gone() }\n",
	}), "type-check fix/cmd/c")
}

func TestStaleAllowlistEntryFails(t *testing.T) {
	wantFindings(t, writeTree(t, map[string]string{
		"internal/lib/lib.go": lib(""),
		"cmd/c/main.go":       cmdUsesLib,
		allowlistPath:         "lib.Gone  oracle  deleted since\n",
	}), "allowlisted lib.Gone is not an exported identifier")
}

func TestReferencedAllowlistEntryFails(t *testing.T) {
	wantFindings(t, writeTree(t, map[string]string{
		"internal/lib/lib.go": lib(""),
		"cmd/c/main.go":       cmdUsesLib,
		allowlistPath:         "lib.Used  paper  now has a caller\n",
	}), "allowlisted lib.Used is referenced")
}

func TestMalformedAllowlistFails(t *testing.T) {
	wantFindings(t, writeTree(t, map[string]string{
		"internal/lib/lib.go": lib("\n// A is kept.\nfunc A() {}\n\n// B is kept.\nfunc B() {}\n"),
		"cmd/c/main.go":       cmdUsesLib,
		allowlistPath:         "lib.A  legacy  no such kind\nlib.B  paper\n",
	}), `allowlist kind "legacy"`, "needs a name, a kind and a reason",
		"exported lib.A has no non-test reference", "exported lib.B has no non-test reference")
}

func TestUndocumentedExportFails(t *testing.T) {
	wantFindings(t, writeTree(t, map[string]string{
		"internal/lib/lib.go": lib("\nfunc Bare() {}\n"),
		"cmd/c/main.go":       "package main\n\nimport \"fix/internal/lib\"\n\nfunc main() { lib.Used(); lib.Bare() }\n",
	}), "exported function Bare has no doc comment")
}

// Every non-main package of the root module is audited, wherever it
// sits, including the module root.
func TestEveryPackageIsAudited(t *testing.T) {
	wantFindings(t, writeTree(t, map[string]string{
		"api.go":          "package fix\n\nfunc Facade() {}\n",
		"pkg/deep/x/x.go": "// Package x is a fixture.\npackage x\n\ntype Bare int\n",
	}), "exported function Facade has no doc comment", "package fix has no package comment",
		"exported type Bare has no doc comment")
}

func TestBrokenMarkdownLinkFails(t *testing.T) {
	wantFindings(t, writeTree(t, map[string]string{
		"docs/GUIDE.md": "See [the missing page](MISSING.md#intro) and [this page](GUIDE.md).\n",
	}), `broken link "MISSING.md#intro"`)
}

// The repository itself passes its own gate.
func TestRepositoryPasses(t *testing.T) {
	if got := check(filepath.Join("..", "..", "..")); len(got) != 0 {
		t.Errorf("docscheck findings on the repository:\n%s", strings.Join(got, "\n"))
	}
}
