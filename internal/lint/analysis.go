package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one static check. It mirrors the shape of
// golang.org/x/tools/go/analysis.Analyzer so the suite can migrate to the
// official framework if the dependency ever lands; Run reports findings
// through the Pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, resolved to a file position. Waived is set
// by the runner when a //lint:allow comment covers the finding; waived
// findings don't fail the build but are surfaced in the report.
type Diagnostic struct {
	Analyzer    string
	Pos         token.Position
	Message     string
	Waived      bool
	WaiveReason string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzers returns the full tcrowd-lint suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{LockCheck, DetFold, NoAlloc, ErrTable}
}

// ---- directives ----

// Directive is one machine-readable "//tcrowd:NAME args..." comment.
type Directive struct {
	Name string
	Args []string
	Pos  token.Pos
}

const directivePrefix = "//tcrowd:"

// parseDirectives extracts //tcrowd: directives from comment groups (nil
// groups are fine). The directive form is "//tcrowd:name arg arg..." with
// no space before the name, matching the Go toolchain's directive
// convention so godoc hides it; a trailing "// ..." note is not an
// argument.
func parseDirectives(groups ...*ast.CommentGroup) []Directive {
	var out []Directive
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			rest, _, _ := strings.Cut(strings.TrimPrefix(c.Text, directivePrefix), "//")
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				continue
			}
			out = append(out, Directive{Name: fields[0], Args: fields[1:], Pos: c.Pos()})
		}
	}
	return out
}

// packageDirectives returns directives attached to any file's package
// comment (the doc comment above the package clause).
func (p *Pass) packageDirectives() []Directive {
	var out []Directive
	for _, f := range p.Files {
		out = append(out, parseDirectives(f.Doc)...)
	}
	return out
}

// hasPackageDirective reports whether any file's package comment carries
// the named directive.
func (p *Pass) hasPackageDirective(name string) bool {
	for _, d := range p.packageDirectives() {
		if d.Name == name {
			return true
		}
	}
	return false
}

// ---- waivers ----

// waiver is one parsed "//lint:allow <analyzer> <reason>" comment.
type waiver struct {
	analyzer string
	reason   string
	file     string
	line     int
	used     bool
}

const waiverPrefix = "//lint:allow "

// collectWaivers finds every //lint:allow comment in the files. A waiver
// covers findings of the named analyzer on its own line (trailing
// comment) and on the line directly below (standalone comment above the
// flagged statement).
func collectWaivers(fset *token.FileSet, files []*ast.File) []*waiver {
	var out []*waiver
	for _, f := range files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				if !strings.HasPrefix(c.Text, waiverPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, waiverPrefix)
				fields := strings.SplitN(strings.TrimSpace(rest), " ", 2)
				if len(fields) == 0 || fields[0] == "" {
					continue
				}
				w := &waiver{analyzer: fields[0]}
				if len(fields) == 2 {
					w.reason = strings.TrimSpace(fields[1])
				}
				pos := fset.Position(c.Pos())
				w.file, w.line = pos.Filename, pos.Line
				out = append(out, w)
			}
		}
	}
	return out
}

// applyWaivers marks diagnostics covered by a waiver. It returns the
// waivers that matched nothing (so the driver can flag stale waivers).
func applyWaivers(diags []Diagnostic, waivers []*waiver) (unused []*waiver) {
	for i := range diags {
		d := &diags[i]
		for _, w := range waivers {
			if w.analyzer != d.Analyzer || w.file != d.Pos.Filename {
				continue
			}
			if w.line == d.Pos.Line || w.line == d.Pos.Line-1 {
				d.Waived = true
				d.WaiveReason = w.reason
				w.used = true
				break
			}
		}
	}
	for _, w := range waivers {
		if !w.used {
			unused = append(unused, w)
		}
	}
	return unused
}

// sortDiags orders findings by file, line, column, analyzer for stable
// output.
func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// ---- shared helpers ----

// exprString renders an expression compactly ("p.mu", "proj.inferMu").
// It handles the selector/ident/paren/star shapes lock expressions take;
// anything else renders as a placeholder that will simply never match.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	}
	return "<expr>"
}

// namedTypeName resolves the bare name of an expression's (possibly
// pointer-wrapped) named type, or "" when it has none.
func namedTypeName(info *types.Info, e ast.Expr) string {
	t := info.TypeOf(e)
	return typeBareName(t)
}

func typeBareName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Pointer); ok {
		t = n.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// proseGuard matches the legacy "guarded by <mu>" comment form.
var proseGuard = regexp.MustCompile(`(?i)\bguarded by ([A-Za-z_][\w.]*)`)

// proseHolds matches the legacy "Caller holds <mu>" comment form.
var proseHolds = regexp.MustCompile(`(?i)\bcaller(?:s)? (?:must hold|holds?) ([A-Za-z_][\w.]*)`)

// trimProseRef strips trailing sentence punctuation from a prose mutex
// reference ("p.mu." -> "p.mu").
func trimProseRef(s string) string {
	return strings.TrimRight(s, ".,;:")
}
