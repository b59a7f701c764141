package spec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// tokens renders every item Parse hands out, one "scope|idx|key|val"
// line per item.
func tokens(name, text string, onePerElement bool) ([]string, error) {
	var out []string
	err := Parse(name, text, onePerElement, func(part, scope string, idx int, key, val string) error {
		out = append(out, fmt.Sprintf("%s|%d|%s|%s", scope, idx, key, val))
		return nil
	})
	return out, err
}

func TestParseTokens(t *testing.T) {
	cases := []struct {
		text string
		want []string
	}{
		{"", nil},
		{"   ", nil},
		{"fixed", []string{"|0|fixed|"}},
		{" fixed , delay=3 ,link:2:credit=1", []string{"|0|fixed|", "|0|delay|3", "link|2|credit|1"}},
		{"cell:1:slow=2@5,link:0:sever", []string{"cell|1|slow|2@5", "link|0|sever|"}},
		{"cell:-1:dead", []string{"cell|-1|dead|"}},
		// Only cell and link scope an item; anything else is plan-wide.
		{"queue:1:slow=2", []string{"|0|queue:1:slow|2"}},
		// The value runs to the end of the item, '=' included.
		{"delay=3=4", []string{"|0|delay|3=4"}},
		// Empty items reach the interpreter, which refuses them.
		{"fixed,", []string{"|0|fixed|", "|0||"}},
	}
	for _, tc := range cases {
		got, err := tokens("test", tc.text, false)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Parse(%q) = %q, %v; want %q", tc.text, got, err, tc.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		text          string
		onePerElement bool
		want          string
	}{
		{"cell:1", false, `test spec "cell:1": want cell:IDX:KEY[=VALUE]`},
		{"link:x:delay=2", false, `test spec "link:x:delay=2": bad link index: strconv.Atoi: parsing "x": invalid syntax`},
		{"delay=", false, `test spec "delay=": missing value after delay=`},
		{"delay=2,delay=3", false, `test spec "delay=3": duplicate parameter "delay"`},
		{"link:1:delay=2,link:1:delay=3", false, `test spec "link:1:delay=3": duplicate delay for link 1`},
		{"cell:1:slow=2,cell:1:dead", true, `test spec "cell:1:dead": cell 1 already has a test in this spec (one test per cell)`},
		// Per-element uniqueness is per scope: cell 1 and link 1 differ.
		{"cell:1:dead,link:1:sever,cell:1:slow=2", true, `test spec "cell:1:slow=2": cell 1 already has a test in this spec (one test per cell)`},
	}
	for _, tc := range cases {
		_, err := tokens("test", tc.text, tc.onePerElement)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Parse(%q) err = %v, want %s", tc.text, err, tc.want)
		}
	}
	// Per-key uniqueness lets one element carry several keys.
	if _, err := tokens("test", "link:1:delay=2,link:1:credit=1", false); err != nil {
		t.Errorf("two keys on one link: %v", err)
	}
	// The interpreter's error stops the walk.
	calls := 0
	err := Parse("test", "a,b,c", false, func(part, _ string, _ int, _, _ string) error {
		calls++
		if part == "b" {
			return fmt.Errorf("no b")
		}
		return nil
	})
	if err == nil || calls != 2 {
		t.Errorf("interpreter error: err = %v after %d calls, want it after 2", err, calls)
	}
}

// TestParseLinear: the server parses both grammars from request bodies
// of up to 8 MiB, so a long spec must parse in time linear in its
// items. It counts the duplicate check's work instead of timing it:
// each item is compared with at most the eight identities of the
// inline buffer and one map probe, whatever the spec's length. A check
// that compares each item with every earlier one makes thousands.
func TestParseLinear(t *testing.T) {
	var probes int
	testProbes = &probes
	t.Cleanup(func() { testProbes = nil })
	for _, tc := range []struct {
		item          string
		onePerElement bool
	}{
		{"cell:%d:dead", true},
		{"link:%d:delay=1", false},
	} {
		for _, n := range []int{10_000, 40_000} {
			var b strings.Builder
			for i := range n {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, tc.item, i)
			}
			probes = 0
			if err := Parse("test", b.String(), tc.onePerElement, func(string, string, int, string, string) error { return nil }); err != nil {
				t.Fatal(err)
			}
			if probes > 9*n {
				t.Errorf("%q: %d items made %d duplicate-check comparisons, more than 9 per item", tc.item, n, probes)
			}
		}
	}
}

// TestParseAllocations: the tokenizer itself allocates nothing for a
// spec of a few items — the server parses two specs per run request.
func TestParseAllocations(t *testing.T) {
	text := "fixed,delay=2,credit=1,link:3:delay=5,link:3:credit=2"
	n := testing.AllocsPerRun(100, func() {
		_ = Parse("link model", text, false, func(string, string, int, string, string) error { return nil })
	})
	if n != 0 {
		t.Errorf("Parse allocates %.1f times per call, want 0", n)
	}
}
