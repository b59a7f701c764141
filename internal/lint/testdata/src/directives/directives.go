// Package directivesfix exercises directive validation: every
// malformed //sysvet: comment below must surface as a finding under
// the reserved "sysvet" analyzer name, and an ignore comment, whose
// verb does not exist, must not suppress the finding it sits on. The
// test asserts these programmatically — a want comment cannot share a
// line with the directive it describes.
package directivesfix

//sysvet:ignore detorder -- there is no suppression verb
//sysvet:unordered
//sysvet:unordered detorder -- takes no argument
//sysvet:hotpath
//sysvet:frobnicate -- not a verb

// wellFormed carries one valid directive; it may not produce a
// problem finding.
func wellFormed(m map[string]int) {
	//sysvet:unordered -- fixture: commutative sum
	for _, v := range m {
		_ = v
	}
}

// notSuppressed sits under an ignore comment, which must not suppress
// the detorder finding on its range statement.
func notSuppressed(m map[string]int) string {
	out := ""
	//sysvet:ignore detorder -- a reason does not make it a verb
	for k := range m {
		out = k
	}
	return out
}
