package docs

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// repoRoot locates the repository root from this source file's location,
// so `go test` enforces docs freshness without needing CI.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate source file")
	}
	root := filepath.Clean(filepath.Join(filepath.Dir(file), "..", ".."))
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}
	return root
}

// TestRepositoryDocsAreFresh is the same gate CI runs via
// scripts/checkdocs: every ARCHITECTURE.md/README.md link resolves, every
// symbol named in link text exists, and the README's usage block matches
// internal/cli.UsageText.
func TestRepositoryDocsAreFresh(t *testing.T) {
	for _, err := range Check(repoRoot(t)) {
		t.Error(err)
	}
}

func TestSymbolFor(t *testing.T) {
	cases := []struct{ text, want string }{
		{"`core.PlanCache`", "PlanCache"},
		{"`Searcher.Search`", "Search"},
		{"`pathLess`", "pathLess"},
		{"`esg.go`", ""},       // file name, not a symbol
		{"`ci.yml`", ""},       // file name
		{"`internal/cli`", ""}, // path
		{"plain prose", ""},    // not backticked
		{"`a`/`b`", ""},        // compound text
	}
	for _, c := range cases {
		if got := symbolFor(c.text); got != c.want {
			t.Errorf("symbolFor(%q) = %q, want %q", c.text, got, c.want)
		}
	}
}

// TestCheckLinksCatchesBreakage pins the failure modes the checker exists
// for: a dangling file link, a renamed symbol, and a symbol the linked file
// only mentions in a comment or a string instead of declaring. Every
// declaration form — package clause, func, method, type, var, const,
// struct field and interface method — resolves.
func TestCheckLinksCatchesBreakage(t *testing.T) {
	dir := t.TempDir()
	writeFile := func(name, content string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("pkg/thing.go", `package pkg

// Ghost was deleted; only this comment still names it.
var phantom = "Spectre"

const Limit = 3

type Thing struct{ Field int }

type Doer interface{ Do() }

func Present() {}

func (Thing) Method() {}
`)
	doc := "[gone](no/such/file.go)\n"
	for _, sym := range []string{"pkg", "pkg.Present", "pkg.phantom", "pkg.Limit", "pkg.Thing",
		"Thing.Field", "pkg.Doer", "Doer.Do", "Thing.Method", "pkg.Vanished", "pkg.Ghost", "pkg.Spectre"} {
		doc += "[`" + sym + "`](pkg/thing.go)\n"
	}
	writeFile("doc.md", doc)

	errs := checkLinks(dir, "doc.md")
	if len(errs) != 4 {
		t.Fatalf("got %d errors, want 4 (dangling link, Vanished, Ghost in a comment, Spectre in a string): %v", len(errs), errs)
	}
}
