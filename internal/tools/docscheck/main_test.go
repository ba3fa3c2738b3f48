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
