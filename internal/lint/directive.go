package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Directive is one parsed //sysvet: comment: a well-formed
// //sysvet:unordered, the only verb, when Problem is empty. A
// malformed directive asserts nothing and is reported as a finding in
// its own right.
type Directive struct {
	Pos     token.Position
	Problem string
}

// DirectiveIndex holds every sysvet directive of one package, indexed
// by file and line for the Unordered lookup.
type DirectiveIndex struct {
	byLine map[string]map[int][]*Directive
	list   []*Directive
}

const directivePrefix = "//sysvet:"

// parseDirectives scans every comment of the files for sysvet
// directives.
func parseDirectives(fset *token.FileSet, files []*ast.File) *DirectiveIndex {
	idx := &DirectiveIndex{byLine: make(map[string]map[int][]*Directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				d := parseDirective(c.Text)
				d.Pos = fset.Position(c.Pos())
				idx.list = append(idx.list, d)
				lines := idx.byLine[d.Pos.Filename]
				if lines == nil {
					lines = make(map[int][]*Directive)
					idx.byLine[d.Pos.Filename] = lines
				}
				lines[d.Pos.Line] = append(lines[d.Pos.Line], d)
			}
		}
	}
	return idx
}

// parseDirective splits "//sysvet:<verb> [-- reason]" and validates
// the shape. unordered insists on a non-empty reason: an exemption
// nobody can justify is an exemption nobody can review. There is no
// suppression verb; a finding is fixed or the analyzer is changed.
func parseDirective(text string) *Directive {
	rest := strings.TrimPrefix(text, directivePrefix)
	body, reason, hasReason := strings.Cut(rest, "--")
	reason = strings.TrimSpace(reason)
	fields := strings.Fields(body)
	d := &Directive{}
	switch {
	case len(fields) == 0:
		d.Problem = "missing directive verb; want unordered"
	case fields[0] != "unordered":
		d.Problem = fmt.Sprintf("unknown sysvet directive %q; want unordered", fields[0])
	case len(fields) != 1:
		d.Problem = "usage: //sysvet:unordered -- <reason>"
	case !hasReason || reason == "":
		d.Problem = "//sysvet:unordered requires a non-empty reason: //sysvet:unordered -- <reason>"
	}
	return d
}

// at returns the well-formed directives on a given file line.
func (x *DirectiveIndex) at(file string, line int) []*Directive {
	if lines, ok := x.byLine[file]; ok {
		return lines[line]
	}
	return nil
}

// Unordered reports whether a map range at pos carries a well-formed
// unordered directive (same line or the line above).
func (x *DirectiveIndex) Unordered(pos token.Position) bool {
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, d := range x.at(pos.Filename, line) {
			if d.Problem == "" {
				return true
			}
		}
	}
	return false
}

// Problems returns one diagnostic per malformed directive, under the
// reserved analyzer name "sysvet".
func (x *DirectiveIndex) Problems() []Diagnostic {
	var out []Diagnostic
	for _, d := range x.list {
		if d.Problem != "" {
			out = append(out, Diagnostic{Pos: d.Pos, Analyzer: "sysvet", Message: d.Problem})
		}
	}
	return out
}
