package analysis

import (
	"go/parser"
	"go/token"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Suppression is one standing //simlint:ok exemption in the tree. The
// list is the audit surface behind `simlint -suppressions`, which
// regenerates the DESIGN.md §8/§9 suppression tables — every exemption
// is a reviewed decision with a stated reason, enumerable on demand.
type Suppression struct {
	// File is the path relative to the walk root, Line the 1-based
	// annotation line.
	File string
	Line int
	// Analyzer is the suppressed analyzer.
	Analyzer string
	// Reason is the annotation's mandatory justification text.
	Reason string
}

// ListSuppressions syntactically walks every non-test Go file of the
// packages under root (the Loader's package walk) and returns its
// simlint annotations sorted by file and line. It parses comments only
// — no type checking — so it runs anywhere, including on trees that do
// not currently compile.
func ListSuppressions(root string) ([]Suppression, error) {
	dirs, err := walkTree(root)
	if err != nil {
		return nil, err
	}
	var out []Suppression
	fset := token.NewFileSet()
	for _, d := range dirs {
		for _, name := range d.files {
			rel := path.Join(d.rel, name)
			f, err := parser.ParseFile(fset, filepath.Join(root, rel), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(c.Text)
					if !strings.HasPrefix(text, okPrefix) {
						continue
					}
					fields := strings.Fields(strings.TrimPrefix(text, okPrefix))
					s := Suppression{File: rel, Line: fset.Position(c.Pos()).Line, Analyzer: "?", Reason: "(missing)"}
					if len(fields) > 0 {
						s.Analyzer = fields[0]
					}
					if len(fields) > 1 {
						s.Reason = strings.Join(fields[1:], " ")
					}
					out = append(out, s)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out, nil
}

// FormatSuppressions renders the audit list as the markdown table
// embedded in DESIGN.md.
func FormatSuppressions(sups []Suppression) string {
	var b strings.Builder
	b.WriteString("| Location | Analyzer | Reason |\n")
	b.WriteString("|---|---|---|\n")
	for _, s := range sups {
		loc := s.File + ":" + strconv.Itoa(s.Line)
		b.WriteString("| `" + loc + "` | `" + s.Analyzer + "` | " + s.Reason + " |\n")
	}
	return b.String()
}
