// Package directivesfix exercises directive validation: every
// malformed //sysvet: comment below must surface as a finding under
// the reserved "sysvet" analyzer name, and a malformed ignore must
// not suppress the finding it sits on. The test asserts these
// programmatically — a want comment cannot share a line with the
// directive it describes.
package directivesfix

//sysvet:ignore detorder
//sysvet:ignore detorder --
//sysvet:ignore nosuchanalyzer -- the analyzer name is made up
//sysvet:ignore
//sysvet:unordered
//sysvet:hotpath
//sysvet:frobnicate -- not a verb

// wellFormed carries one valid directive of each verb; none of these
// may produce a problem finding.
func wellFormed(m map[string]int) []string {
	var out []string
	//sysvet:ignore detorder -- fixture: a valid suppression
	for k := range m {
		out = append(out, k)
	}
	//sysvet:unordered -- fixture: commutative sum
	for _, v := range m {
		_ = v
	}
	return out
}

// notSuppressed sits under a reasonless ignore, which must not
// suppress the detorder finding on its range statement.
func notSuppressed(m map[string]int) string {
	out := ""
	//sysvet:ignore detorder
	for k := range m {
		out = k
	}
	return out
}
