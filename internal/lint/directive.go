package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Directive is one parsed //sysvet: comment. Problem is non-empty
// when the directive is malformed; malformed directives never
// suppress anything and are reported as findings in their own right.
type Directive struct {
	Pos     token.Position
	Verb    string // "ignore" or "unordered"
	Arg     string // ignore: the analyzer being suppressed
	Reason  string
	Problem string
}

// DirectiveIndex holds every sysvet directive of one package, indexed
// by file and line for the suppression lookups.
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

// parseDirective splits "//sysvet:<verb> [arg] [-- reason]" and
// validates the shape. ignore and unordered insist on a non-empty
// reason: a suppression nobody can justify is a suppression nobody
// can review.
func parseDirective(text string) *Directive {
	rest := strings.TrimPrefix(text, directivePrefix)
	body, reason, hasReason := strings.Cut(rest, "--")
	reason = strings.TrimSpace(reason)
	fields := strings.Fields(body)
	if len(fields) == 0 {
		return &Directive{Problem: "missing directive verb; want ignore or unordered"}
	}
	d := &Directive{Verb: fields[0], Reason: reason}
	switch d.Verb {
	case "ignore":
		if len(fields) != 2 {
			d.Problem = "usage: //sysvet:ignore <analyzer> -- <reason>"
			return d
		}
		d.Arg = fields[1]
		if !analyzerNames()[d.Arg] {
			d.Problem = fmt.Sprintf("unknown analyzer %q in //sysvet:ignore", d.Arg)
			return d
		}
		if !hasReason || reason == "" {
			d.Problem = "//sysvet:ignore requires a non-empty reason: //sysvet:ignore <analyzer> -- <reason>"
		}
	case "unordered":
		if len(fields) != 1 {
			d.Problem = "usage: //sysvet:unordered -- <reason>"
			return d
		}
		if !hasReason || reason == "" {
			d.Problem = "//sysvet:unordered requires a non-empty reason: //sysvet:unordered -- <reason>"
		}
	default:
		d.Problem = fmt.Sprintf("unknown sysvet directive %q; want ignore or unordered", d.Verb)
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

// Suppressed reports whether a finding of the named analyzer at pos
// is covered by an ignore directive on the same line (trailing
// comment) or the line above (own-line comment).
func (x *DirectiveIndex) Suppressed(analyzer string, pos token.Position) bool {
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, d := range x.at(pos.Filename, line) {
			if d.Problem == "" && d.Verb == "ignore" && d.Arg == analyzer {
				return true
			}
		}
	}
	return false
}

// Unordered reports whether a map range at pos carries a well-formed
// unordered directive (same line or the line above).
func (x *DirectiveIndex) Unordered(pos token.Position) bool {
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, d := range x.at(pos.Filename, line) {
			if d.Problem == "" && d.Verb == "unordered" {
				return true
			}
		}
	}
	return false
}

// Problems returns one diagnostic per malformed directive, under the
// reserved analyzer name "sysvet" so they cannot be self-suppressed.
func (x *DirectiveIndex) Problems() []Diagnostic {
	var out []Diagnostic
	for _, d := range x.list {
		if d.Problem != "" {
			out = append(out, Diagnostic{Pos: d.Pos, Analyzer: "sysvet", Message: d.Problem})
		}
	}
	return out
}
