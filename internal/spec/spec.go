// Package spec is the tokenizer the two run-condition grammars share:
// the fault plan (internal/fault, `sysdl -fault`) and the link-timing
// model (internal/linkmodel, `sysdl -link-model`), on the CLI and on
// the server wire alike. A spec is a comma-separated list of items,
// each plan-wide or scoped to one cell or link:
//
//	KEY[=VALUE]            plan-wide item
//	cell:IDX:KEY[=VALUE]   item scoped to cell IDX
//	link:IDX:KEY[=VALUE]   item scoped to link IDX
//
// Parse trims the items, parses the index, splits KEY from VALUE at
// the first '=' and refuses a repeated item before the grammar's
// interpreter sees it. What a key means, how a value parses and which
// items a grammar allows belong to the interpreter.
package spec

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// testProbes, when set, counts the identities Parse compares items
// with: the inline buffer's entries and the map probe after them. Tests
// bound it per item to hold the duplicate check linear.
var testProbes *int

// Parse tokenizes text and calls item once per item, in order. part
// is the trimmed item (for error messages), scope is "cell", "link" or
// "" for a plan-wide item (idx 0 then), and val is "" exactly when the
// item has no '=' — an empty value after '=' is an error here. name is
// the grammar's noun ("fault", "link model"); every error starts with
// "<name> spec <item>:".
//
// Two plan-wide items repeat when their keys are equal, two scoped
// items when scope, index and key are — or, with onePerElement, scope
// and index alone: a fault plan holds at most one fault per cell and
// per link. An empty or all-blank text calls item never.
func Parse(name, text string, onePerElement bool, item func(part, scope string, idx int, key, val string) error) error {
	text = strings.TrimSpace(text)
	if text == "" {
		return nil
	}
	// An item's identity: scope, index and key, or with onePerElement
	// a scoped item's scope and index alone (key ""). Specs are short,
	// so the first eight identities sit in an inline buffer and parsing
	// allocates nothing; later ones go to a map, so a long spec off the
	// wire parses in linear time.
	type seenItem struct {
		scope, key string
		idx        int
	}
	var buf [8]seenItem
	seen := buf[:0]
	var more map[seenItem]bool
	for rest, next := text, true; next; {
		var part string
		part, rest, next = strings.Cut(rest, ",")
		part = strings.TrimSpace(part)
		scope, idx, body := "", 0, part
		if s, r, ok := strings.Cut(part, ":"); ok && (s == "cell" || s == "link") {
			i, b, ok := strings.Cut(r, ":")
			if !ok {
				return fmt.Errorf("%s spec %q: want %s:IDX:KEY[=VALUE]", name, part, s)
			}
			n, err := strconv.Atoi(i)
			if err != nil {
				return fmt.Errorf("%s spec %q: bad %s index: %v", name, part, s, err)
			}
			scope, idx, body = s, n, b
		}
		key, val, hasVal := strings.Cut(body, "=")
		if hasVal && val == "" {
			return fmt.Errorf("%s spec %q: missing value after %s=", name, part, key)
		}
		id := seenItem{scope, key, idx}
		if scope != "" && onePerElement {
			id.key = ""
		}
		if testProbes != nil {
			*testProbes += len(seen) + 1
		}
		switch {
		case !slices.Contains(seen, id) && !more[id]:
		case scope != "" && onePerElement:
			return fmt.Errorf("%s spec %q: %s %d already has a %s in this spec (one %s per %s)", name, part, scope, idx, name, name, scope)
		case scope != "":
			return fmt.Errorf("%s spec %q: duplicate %s for %s %d", name, part, key, scope, idx)
		default:
			return fmt.Errorf("%s spec %q: duplicate parameter %q", name, part, key)
		}
		if len(seen) < len(buf) {
			seen = append(seen, id)
		} else {
			if more == nil {
				more = make(map[seenItem]bool)
			}
			more[id] = true
		}
		if err := item(part, scope, idx, key, val); err != nil {
			return err
		}
	}
	return nil
}
