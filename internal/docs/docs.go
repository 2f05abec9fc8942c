// Package docs keeps the repository's documentation verifiably fresh: it
// resolves every relative markdown link in ARCHITECTURE.md (and the
// README) against the working tree, parses linked Go files for
// declarations of the symbols named in link text, and pins the README's embedded esgbench usage block
// to internal/cli's canonical UsageText. scripts/checkdocs runs these
// checks in CI (and regenerates the usage block with -fix); the package's
// own tests run them on every `go test`.
package docs

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"

	"github.com/esg-sched/esg/internal/cli"
)

// CheckedFiles are the markdown files whose links must resolve.
var CheckedFiles = []string{"ARCHITECTURE.md", "README.md"}

// linkRE matches inline markdown links: [text](target).
var linkRE = regexp.MustCompile(`\[([^\]]+)\]\(([^)\s]+)\)`)

// symbolTextRE matches link text that names a code symbol — a backticked
// dotted identifier chain like `core.PlanCache` or `Searcher.Search`.
var symbolTextRE = regexp.MustCompile("^`([A-Za-z_][A-Za-z0-9_]*(?:\\.[A-Za-z_][A-Za-z0-9_]*)*)`$")

// fileExtSegments are final identifier segments that mean the link text is
// a file name (`esg.go`, `ci.yml`), not a symbol reference.
var fileExtSegments = map[string]bool{"go": true, "md": true, "yml": true, "yaml": true, "json": true}

// Check runs every documentation check against the repository rooted at
// root and returns the problems found (empty means fresh).
func Check(root string) []error {
	var errs []error
	for _, f := range CheckedFiles {
		errs = append(errs, checkLinks(root, f)...)
	}
	errs = append(errs, checkReadmeMentionsArchitecture(root)...)
	errs = append(errs, checkUsageBlock(root)...)
	errs = append(errs, CheckPackageMap(root)...)
	return errs
}

// modulePath is the repository's Go module path; package names in
// ARCHITECTURE.md's map are relative to it.
const modulePath = "github.com/esg-sched/esg"

// PackageMapEdges is the machine-readable form of ARCHITECTURE.md's
// package-map arrows: each pair asserts that the first package imports the
// second (directly or transitively), which CheckPackageMap verifies
// against the real import graph (`go list -deps`). Rows where the diagram
// draws an interface boundary (core and the baselines under sched) are
// encoded in the code's import direction — the implementations import the
// interface package. Editing the diagram means editing this list, and vice
// versa; the check fails when either drifts from the code.
var PackageMapEdges = [][2]string{
	{"cmd/esgbench", "internal/cli"},
	{"cmd/esgbench", "internal/experiments"},
	{"internal/experiments", "internal/controller"},
	{"internal/experiments", "internal/metrics"},
	{"internal/controller", "internal/sched"},
	{"internal/controller", "internal/queue"},
	{"internal/controller", "internal/simulate"},
	{"internal/controller", "internal/cluster"},
	{"internal/core", "internal/sched"},
	{"internal/core", "internal/profile"},
	{"internal/core", "internal/dominator"},
	{"internal/baselines", "internal/sched"},
	{"internal/sched", "internal/cluster"},
	{"internal/sched", "internal/queue"},
	{"internal/sched", "internal/profile"},
	{"internal/queue", "internal/workflow"},
	{"internal/workflow", "internal/profile"},
	{"internal/profile", "internal/pricing"},
	{"internal/profile", "internal/units"},
	{"internal/cluster", "internal/units"},
	{"internal/workload", "internal/rng"},
}

// PackageMapAntiEdges pin the layering the map draws: the first package
// must NOT depend on the second, even transitively. These are the edges
// whose accidental introduction would silently invert a layer (a substrate
// growing a dependency on its orchestrator) while the diagram still drew
// the old picture.
var PackageMapAntiEdges = [][2]string{
	{"internal/sched", "internal/controller"},
	{"internal/cluster", "internal/sched"},
	{"internal/simulate", "internal/controller"},
	{"internal/queue", "internal/controller"},
	{"internal/core", "internal/experiments"},
	{"internal/profile", "internal/sched"},
	{"internal/metrics", "internal/controller"},
}

// pkgTokenRE matches package paths named inside the package-map diagram.
var pkgTokenRE = regexp.MustCompile(`(?:cmd|internal)/[a-z0-9]+(?:/[a-z0-9]+)*`)

// CheckPackageMap verifies ARCHITECTURE.md's package map against the real
// import graph: every package path drawn in the map's code block must be a
// package of this module, every edge in PackageMapEdges must hold in
// `go list -deps`, and every anti-edge must stay absent.
func CheckPackageMap(root string) []error {
	deps, errs := importGraph(root)
	if deps == nil {
		return errs
	}
	for _, pkg := range packagesInMap(root, &errs) {
		if _, ok := deps[modulePath+"/"+pkg]; !ok {
			errs = append(errs, fmt.Errorf("ARCHITECTURE.md: package map names %q, which is not a package of this module", pkg))
		}
	}
	for _, e := range PackageMapEdges {
		from, to := modulePath+"/"+e[0], modulePath+"/"+e[1]
		d, ok := deps[from]
		if !ok {
			errs = append(errs, fmt.Errorf("package map edge %s -> %s: %q is not a package of this module", e[0], e[1], e[0]))
			continue
		}
		if !d[to] {
			errs = append(errs, fmt.Errorf("package map edge %s -> %s no longer holds (not in `go list -deps %s`)", e[0], e[1], e[0]))
		}
	}
	for _, e := range PackageMapAntiEdges {
		from, to := modulePath+"/"+e[0], modulePath+"/"+e[1]
		if d, ok := deps[from]; ok && d[to] {
			errs = append(errs, fmt.Errorf("package map layering violated: %s now depends on %s", e[0], e[1]))
		}
	}
	return errs
}

// importGraph builds each module package's transitive dependency set from
// one `go list` invocation run at root.
func importGraph(root string) (map[string]map[string]bool, []error) {
	cmd := exec.Command("go", "list", "-f", `{{.ImportPath}}	{{range .Deps}}{{.}} {{end}}`, "./...")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		msg := err.Error()
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			msg = strings.TrimSpace(string(ee.Stderr))
		}
		return nil, []error{fmt.Errorf("package map: go list: %s", msg)}
	}
	graph := make(map[string]map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		pkg, rest, _ := strings.Cut(line, "\t")
		set := make(map[string]bool)
		for _, d := range strings.Fields(rest) {
			set[d] = true
		}
		graph[pkg] = set
	}
	return graph, nil
}

// packagesInMap extracts every package path drawn in ARCHITECTURE.md's
// "Package map" fenced code block.
func packagesInMap(root string, errs *[]error) []string {
	data, err := os.ReadFile(filepath.Join(root, "ARCHITECTURE.md"))
	if err != nil {
		*errs = append(*errs, fmt.Errorf("ARCHITECTURE.md: %v", err))
		return nil
	}
	s := string(data)
	start := strings.Index(s, "## Package map")
	if start < 0 {
		*errs = append(*errs, fmt.Errorf("ARCHITECTURE.md: no \"## Package map\" section"))
		return nil
	}
	s = s[start:]
	open := strings.Index(s, "```")
	if open < 0 {
		*errs = append(*errs, fmt.Errorf("ARCHITECTURE.md: package map has no fenced diagram"))
		return nil
	}
	s = s[open+3:]
	if close := strings.Index(s, "```"); close >= 0 {
		s = s[:close]
	}
	seen := make(map[string]bool)
	var pkgs []string
	for _, p := range pkgTokenRE.FindAllString(s, -1) {
		if !seen[p] {
			seen[p] = true
			pkgs = append(pkgs, p)
		}
	}
	return pkgs
}

// checkLinks verifies every relative link target in file exists, and — for
// symbol-shaped link text pointing at a Go file — that the file still
// declares the symbol's final segment. A mention in a comment or string
// does not count.
func checkLinks(root, file string) []error {
	data, err := os.ReadFile(filepath.Join(root, file))
	if err != nil {
		return []error{fmt.Errorf("%s: %v", file, err)}
	}
	var errs []error
	decls := make(map[string]map[string]bool) // parsed Go files by path
	for _, m := range linkRE.FindAllStringSubmatch(string(data), -1) {
		text, target := m[1], m[2]
		if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
			strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
			continue
		}
		if i := strings.IndexByte(target, '#'); i >= 0 {
			target = target[:i]
		}
		// Links in root-level markdown resolve relative to the root.
		path := filepath.Join(root, filepath.FromSlash(target))
		if _, err := os.Stat(path); err != nil {
			errs = append(errs, fmt.Errorf("%s: link %q -> %q does not resolve", file, text, target))
			continue
		}
		if sym := symbolFor(text); sym != "" && strings.HasSuffix(target, ".go") {
			names, ok := decls[path]
			if !ok {
				if names, err = declaredNames(path); err != nil {
					errs = append(errs, fmt.Errorf("%s: link %q -> %q: %v", file, text, target, err))
					continue
				}
				decls[path] = names
			}
			if !names[sym] {
				errs = append(errs, fmt.Errorf("%s: link %q -> %q: %q is not declared in target", file, text, target, sym))
			}
		}
	}
	return errs
}

// declaredNames returns every name the Go file at path declares: its
// package clause, funcs and methods, types, vars and consts, struct fields
// and interface methods.
func declaredNames(path string) (map[string]bool, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	names := map[string]bool{f.Name.Name: true}
	addFields := func(fl *ast.FieldList) {
		for _, field := range fl.List {
			for _, id := range field.Names {
				names[id.Name] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			names[d.Name.Name] = true
		case *ast.TypeSpec:
			names[d.Name.Name] = true
		case *ast.ValueSpec:
			for _, id := range d.Names {
				names[id.Name] = true
			}
		case *ast.StructType:
			addFields(d.Fields)
		case *ast.InterfaceType:
			addFields(d.Methods)
		}
		return true
	})
	return names, nil
}

// symbolFor extracts the symbol to grep for from a link's text: the final
// segment of a backticked dotted identifier chain, or "" when the text is
// not symbol-shaped (plain prose, paths, file names).
func symbolFor(text string) string {
	m := symbolTextRE.FindStringSubmatch(text)
	if m == nil {
		return ""
	}
	segs := strings.Split(m[1], ".")
	last := segs[len(segs)-1]
	if fileExtSegments[last] {
		return ""
	}
	return last
}

func checkReadmeMentionsArchitecture(root string) []error {
	data, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		return []error{fmt.Errorf("README.md: %v", err)}
	}
	if !strings.Contains(string(data), "](ARCHITECTURE.md)") {
		return []error{fmt.Errorf("README.md: no link to ARCHITECTURE.md")}
	}
	return nil
}

// Usage-block markers. Everything between them in the README is generated
// from internal/cli.UsageText by `go run ./scripts/checkdocs -fix`.
const (
	usageBegin = "<!-- esgbench-usage:begin -->"
	usageEnd   = "<!-- esgbench-usage:end -->"
)

// RenderUsageBlock returns the canonical README block: markers around the
// binary's -h output in a fenced code block.
func RenderUsageBlock() string {
	return usageBegin + "\n```text\n" + cli.UsageText() + "```\n" + usageEnd
}

// checkUsageBlock verifies the README embeds the canonical usage block
// verbatim, so flag defaults documented in the README are always the
// binary's real defaults.
func checkUsageBlock(root string) []error {
	data, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		return []error{fmt.Errorf("README.md: %v", err)}
	}
	s := string(data)
	begin := strings.Index(s, usageBegin)
	end := strings.Index(s, usageEnd)
	if begin < 0 || end < 0 || end < begin {
		return []error{fmt.Errorf("README.md: esgbench usage markers missing (%s ... %s)", usageBegin, usageEnd)}
	}
	got := s[begin : end+len(usageEnd)]
	if got != RenderUsageBlock() {
		return []error{fmt.Errorf("README.md: embedded esgbench usage drifted from internal/cli.UsageText — run `go run ./scripts/checkdocs -fix`")}
	}
	return nil
}

// FixUsageBlock rewrites the README's usage block from the canonical
// source, returning whether the file changed.
func FixUsageBlock(root string) (bool, error) {
	path := filepath.Join(root, "README.md")
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	s := string(data)
	begin := strings.Index(s, usageBegin)
	end := strings.Index(s, usageEnd)
	if begin < 0 || end < 0 || end < begin {
		return false, fmt.Errorf("README.md: esgbench usage markers missing")
	}
	fixed := s[:begin] + RenderUsageBlock() + s[end+len(usageEnd):]
	if fixed == s {
		return false, nil
	}
	return true, os.WriteFile(path, []byte(fixed), 0o644)
}
