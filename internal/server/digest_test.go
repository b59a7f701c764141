package server

import (
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"testing"

	"systolic/internal/dsl"
	"systolic/internal/gen"
	"systolic/internal/machine"
)

// srcDigestReference and canonDigestReference are the cache keys as
// they were written before they streamed through a fixed buffer: one
// io.WriteString of the whole text or key. Keys of recorded replies and
// aliases must not move, so the streamed forms must hash the same bytes.
func srcDigestReference(program string, key analysisKey) cacheKey {
	h := sha256.New()
	io.WriteString(h, "sysdl-src-v2\x00")
	io.WriteString(h, program)
	opts := key.digestBytes()
	h.Write(opts[:])
	var k cacheKey
	h.Sum(k[:0])
	return k
}

func canonDigestReference(scenarioKey string, key analysisKey) cacheKey {
	h := sha256.New()
	io.WriteString(h, "sysdl-canon-v2\x00")
	io.WriteString(h, scenarioKey)
	opts := key.digestBytes()
	h.Write(opts[:])
	var k cacheKey
	h.Sum(k[:0])
	return k
}

// TestDigestsMatchReference: srcDigest and canonDigest equal the
// reference keys on the DSL text and the ScenarioKey of 200 generated
// programs, under strict, lookahead and budget-override keys, and on
// texts of every length around the stream's buffer (the text ending at,
// just before and just after a flush, and the options spilling into a
// second one).
func TestDigestsMatchReference(t *testing.T) {
	keys := []analysisKey{{}, {lookahead: true, capacity: 2}, {lookahead: true, budget: 3}, {capacity: -1, budget: 1 << 40}}
	check := func(name, program, scenario string) {
		t.Helper()
		for _, k := range keys {
			if got, want := srcDigest(program, k), srcDigestReference(program, k); got != want {
				t.Fatalf("%s, key %+v: srcDigest %x, reference %x", name, k, got, want)
			}
			if got, want := canonDigest(scenario, k), canonDigestReference(scenario, k); got != want {
				t.Fatalf("%s, key %+v: canonDigest %x, reference %x", name, k, got, want)
			}
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		sc, err := gen.Generate(seed, gen.Options{})
		if err != nil {
			t.Fatal(err)
		}
		check(sc.Name, dsl.Format(sc.Program, sc.Topology), machine.ScenarioKey(sc.Program, sc.Topology, nil, nil))
	}
	for n := 0; n <= 5*sha256.BlockSize; n++ {
		text := strings.Repeat("x", n)
		check(fmt.Sprintf("%d-byte text", n), text, text)
	}
}

// TestAllocGateDigests: the alias key of a request costs at most two
// allocations whatever the text's size — the hash state and the
// stream's buffer, and none at all where the compiler sees through
// sha256.New, as Go 1.24's does — and the canonical key of a parsed
// program none. Copying the text and the key into []byte values made
// each three, one of them the text's size.
func TestAllocGateDigests(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	key := analysisKey{lookahead: true, capacity: 2}
	for _, size := range []int{100, 100000} {
		program := strings.Repeat("x", size)
		n := testing.AllocsPerRun(10, func() { srcDigest(program, key) })
		t.Logf("srcDigest of a %d-byte text: %v allocations", size, n)
		if n > 2 {
			t.Errorf("srcDigest of a %d-byte text: %v allocations, budget 2", size, n)
		}
	}
	scenario := strings.Repeat("f", 2*sha256.Size)
	if n := testing.AllocsPerRun(10, func() { canonDigest(scenario, key) }); n != 0 {
		t.Errorf("canonDigest: %v allocations, want 0", n)
	}
}
