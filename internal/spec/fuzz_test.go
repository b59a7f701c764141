package spec_test

import (
	"testing"

	"systolic/internal/fault"
	"systolic/internal/linkmodel"
)

// FuzzSpec feeds arbitrary text to both grammars built on the shared
// tokenizer. Neither may panic; an accepted spec's canonical String
// must re-parse to a plan with the same String (a fixpoint); and
// Validate, then Lower when it passes, must not panic on an accepted
// plan. The seeds are the fault and link-model TestParseSpec* tables.
func FuzzSpec(f *testing.F) {
	for _, s := range []string{
		// fault: round trips, edge cases and rejections.
		"cell:2:slow=3", "cell:0:dead", "cell:1:dead@12", "link:4:slow=2@7", "link:3:sever",
		"cell:2:slow=3,cell:0:dead@5,link:1:slow=4,link:0:sever@9",
		" cell:1:slow=2 , link:0:sever ", "cell:1:slow=2@0", "link:0:sever@0",
		"cell:1", "cell:x:slow=2", "cell:1:slow=x", "cell:1:sever", "link:1:dead",
		"cell:1:slow=2@x", "queue:1:slow=2", "cell:1:explode",
		"cell:1:slow=2,cell:1:slow=3", "cell:1:slow=2,cell:1:dead", "link:0:slow=2,link:0:sever",
		"link:2:sever,cell:0:dead,link:2:slow=4", "cell:1:slow=2@-3", "cell:1:slow=2,link:1:slow=2",
		// link model: round trips and rejections.
		"unit", "fixed,delay=1", "fixed,delay=3", "fixed,delay=2,credit=1",
		"fixed,delay=2,link:3:delay=5", "fixed,delay=1,link:0:delay=4,link:2:credit=1",
		"congestion,delay=1,threshold=2,max=4", "congestion,delay=2,threshold=1,max=3,credit=2",
		"fixed,delay=3,credit=2,link:1:delay=5,link:2:credit=1",
		"bogus", "fixed,delay=2,delay=3", "fixed,link:1:delay=2,link:1:delay=3", "fixed,threshold=2",
		"congestion,link:0:delay=2", "fixed,delay=x", "fixed,delay", "fixed,link:0:slow=2", "congestion,warp=9",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if p, err := fault.ParseSpec(text); err == nil {
			canon := p.String()
			q, err := fault.ParseSpec(canon)
			if err != nil || q.String() != canon {
				t.Fatalf("fault spec %q: canonical %q re-parses to %q, %v", text, canon, q.String(), err)
			}
			if p.Validate(8, 8) == nil {
				fault.Lower(new(fault.Lowered), p, 8, 8)
			}
		}
		if p, err := linkmodel.ParseSpec(text); err == nil {
			canon := p.String()
			q, err := linkmodel.ParseSpec(canon)
			if err != nil || q.String() != canon {
				t.Fatalf("link model spec %q: canonical %q re-parses to %q, %v", text, canon, q.String(), err)
			}
			if p.Validate(8) == nil {
				linkmodel.Lower(new(linkmodel.Lowered), p, 8)
			}
		}
	})
}
