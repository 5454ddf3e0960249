// Package docs enforces the repository's documentation contract: every
// exported identifier in the audited packages carries a doc comment,
// and every relative link in the markdown documentation resolves to a
// file that exists. It also holds the code-size ratchet: listed
// directories may not grow past their non-test line ceilings. The
// checks run as ordinary tests (and in CI's docs job), so documentation
// rot and code growth fail the build like any other regression.
package docs

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// MissingDocs parses the Go package in dir (test files excluded) and
// returns one "file:line: identifier" entry per exported declaration
// that has no doc comment. For grouped const/var/type declarations a
// doc comment on the group documents every member, matching godoc's
// rendering; a trailing line comment on the member also counts.
func MissingDocs(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var missing []string
	report := func(pos token.Pos, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: %s", filepath.Base(p.Filename), p.Line, name))
	}
	for _, pkg := range pkgs {
		for _, f := range sortedFiles(pkg.Files) {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || d.Doc != nil {
						continue
					}
					if d.Recv != nil && !exportedReceiver(d.Recv) {
						continue
					}
					report(d.Pos(), d.Name.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
								report(s.Pos(), s.Name.Name)
							}
						case *ast.ValueSpec:
							if d.Doc != nil || s.Doc != nil || s.Comment != nil {
								continue
							}
							for _, n := range s.Names {
								if n.IsExported() {
									report(n.Pos(), n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return missing, nil
}

// sortedFiles returns the package's files in deterministic path order so
// failure output is stable across runs.
func sortedFiles(files map[string]*ast.File) []*ast.File {
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	// insertion sort: the file count is tiny
	for i := 1; i < len(paths); i++ {
		for j := i; j > 0 && paths[j] < paths[j-1]; j-- {
			paths[j], paths[j-1] = paths[j-1], paths[j]
		}
	}
	out := make([]*ast.File, len(paths))
	for i, p := range paths {
		out[i] = files[p]
	}
	return out
}

// exportedReceiver reports whether a method's receiver names an
// exported type; methods on unexported types are internal API and
// exempt from the doc requirement.
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) != 1 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// mdLink matches inline markdown links and images: [text](target).
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// BrokenLinks scans a markdown file for relative links whose target
// does not exist on disk, returning one "file: target" entry per
// broken link. Absolute URLs (a scheme prefix) and pure in-page
// anchors are skipped; a "#section" suffix on a file link is stripped
// before the existence check (anchor names are not validated).
func BrokenLinks(mdPath string) ([]string, error) {
	raw, err := os.ReadFile(mdPath)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(mdPath)
	var broken []string
	for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
		target := m[1]
		if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
			continue
		}
		if i := strings.IndexByte(target, '#'); i >= 0 {
			target = target[:i]
		}
		if target == "" {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, target)); err != nil {
			broken = append(broken, fmt.Sprintf("%s: %s", filepath.Base(mdPath), m[1]))
		}
	}
	return broken, nil
}

// NonTestLines counts the lines of the non-test .go files directly in
// dir, as `wc -l` over them would.
func NonTestLines(dir string) (int, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return 0, err
	}
	n := 0
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		raw, err := os.ReadFile(f)
		if err != nil {
			return 0, err
		}
		n += bytes.Count(raw, []byte{'\n'})
	}
	return n, nil
}

// OverCeilings reads a ceilings file — "dir ceiling" lines, dir
// relative to root, '#' starting a comment — and returns one
// "dir: lines > ceiling" entry per directory whose non-test lines
// exceed its ceiling.
func OverCeilings(root, ceilingsPath string) ([]string, error) {
	f, err := os.Open(ceilingsPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var over []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line, _, _ := strings.Cut(sc.Text(), "#")
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s: want \"dir ceiling\", got %q", ceilingsPath, sc.Text())
		}
		ceiling, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("%s: ceiling of %s: %w", ceilingsPath, fields[0], err)
		}
		n, err := NonTestLines(filepath.Join(root, fields[0]))
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, fmt.Errorf("%s: %s holds no Go code", ceilingsPath, fields[0])
		}
		if n > ceiling {
			over = append(over, fmt.Sprintf("%s: %d lines > ceiling %d", fields[0], n, ceiling))
		}
	}
	return over, sc.Err()
}
