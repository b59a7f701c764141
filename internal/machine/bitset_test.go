package machine

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// collectFrom walks b's members from word index from on with the phase
// loops' idiom and returns them.
func collectFrom(b *bitset, from int) []int {
	var out []int
	var seen int
	for w, word := b.scan(from, &seen); word != 0; w, word = b.scan(w+1, &seen) {
		for ; word != 0; word &= word - 1 {
			out = append(out, w<<6|bits.TrailingZeros64(word))
		}
	}
	return out
}

// collect returns every member of b.
func collect(b *bitset) []int { return collectFrom(b, 0) }

func TestBitsetBasics(t *testing.T) {
	var b bitset
	b.sizeTo(200)
	if b.len() != 0 || len(collect(&b)) != 0 {
		t.Fatalf("fresh set not empty: len=%d members=%v", b.len(), collect(&b))
	}
	for _, i := range []int{0, 63, 64, 65, 127, 128, 199} {
		b.add(i)
	}
	b.add(64) // duplicate must not inflate the count
	if b.len() != 7 {
		t.Fatalf("len = %d, want 7", b.len())
	}
	want := []int{0, 63, 64, 65, 127, 128, 199}
	if got := collect(&b); !slices.Equal(got, want) {
		t.Fatalf("collect = %v, want %v", got, want)
	}
	if !b.has(127) || b.has(126) {
		t.Fatalf("has(127)=%v has(126)=%v", b.has(127), b.has(126))
	}
	b.drop(64)
	b.drop(64) // absent drop is a no-op
	if b.len() != 6 || b.has(64) {
		t.Fatalf("after drop: len=%d has(64)=%v", b.len(), b.has(64))
	}
	b.clearAll()
	if b.len() != 0 || len(collect(&b)) != 0 {
		t.Fatalf("clearAll left members: len=%d", b.len())
	}
}

// TestBitsetNextFrom pins scan's contract on a hand-sized set: the
// first non-empty word at or after the given index, and a zero word
// once there is none — also for an index past the set's end.
func TestBitsetNextFrom(t *testing.T) {
	var b bitset
	b.sizeTo(300)
	b.add(5)
	b.add(170)
	b.add(171)
	cases := []struct {
		from, w int
		word    uint64
	}{
		{0, 0, 1 << 5}, {1, 2, 3 << (170 - 128)}, {2, 2, 3 << (170 - 128)}, {3, 0, 0}, {4, 0, 0}, {5, 0, 0}, {1000, 0, 0},
	}
	for _, c := range cases {
		var seen int
		if w, word := b.scan(c.from, &seen); w != c.w || word != c.word {
			t.Errorf("scan(%d) = word %d %#x, want word %d %#x", c.from, w, word, c.w, c.word)
		}
	}
}

func TestBitsetFill(t *testing.T) {
	var b bitset
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		b.sizeTo(n)
		b.fill(n)
		if b.len() != n {
			t.Fatalf("fill(%d): len = %d", n, b.len())
		}
		got := collect(&b)
		if len(got) != n {
			t.Fatalf("fill(%d): %d members", n, len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("fill(%d): member %d = %d", n, i, v)
			}
		}
	}
}

func TestBitsetCopyFrom(t *testing.T) {
	var a, b bitset
	a.sizeTo(128)
	a.add(3)
	a.add(90)
	b.sizeTo(128)
	b.add(7)
	b.copyFrom(&a)
	if !slices.Equal(collect(&b), []int{3, 90}) || b.len() != 2 {
		t.Fatalf("copyFrom mismatch: %v len=%d", collect(&b), b.len())
	}
	// The copy must be independent.
	b.drop(3)
	if !a.has(3) {
		t.Fatal("drop on copy mutated source")
	}
}

// checkSummary holds b to its layout invariants: bit w of the summary
// is set exactly when words[w] is non-zero, the cached count is the
// population, and words and sum are windows of one allocation.
func checkSummary(t *testing.T, b *bitset) {
	t.Helper()
	pop := 0
	for w, word := range b.words {
		pop += bits.OnesCount64(word)
		if got := b.sum[w>>6]>>(w&63)&1 != 0; got != (word != 0) {
			t.Fatalf("summary bit %d = %v, words[%d] = %#x", w, got, w, word)
		}
	}
	if pop != b.len() {
		t.Fatalf("len = %d, population %d", b.len(), pop)
	}
	if len(b.sum) != (len(b.words)+63)>>6 {
		t.Fatalf("%d summary words for %d words", len(b.sum), len(b.words))
	}
	if len(b.sum) > 0 && &b.words[:len(b.words)+1][len(b.words)] != &b.sum[0] {
		t.Fatal("summary does not follow the words in their allocation")
	}
}

// setSizes are one-word, exactly-full-summary-word and
// multi-summary-word sets, each with its off-by-one neighbors.
var setSizes = []int{1, 63, 64, 65, 4096, 4097, 70_000}

// TestBitsetVsMap drives a bitset and a map with the same random
// operation stream — add, drop, fill, copyFrom, clearAll — and checks
// that membership, count, the summary and ascending iteration agree
// throughout.
func TestBitsetVsMap(t *testing.T) {
	for _, n := range setSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		var b, other bitset
		b.sizeTo(n)
		other.sizeTo(n)
		ref := map[int]bool{}
		members := func() []int {
			want := make([]int, 0, len(ref))
			for i := range ref {
				want = append(want, i)
			}
			slices.Sort(want)
			return want
		}
		// The whole set is compared every few steps; on the large sets
		// that comparison is the test's cost, so it runs less often.
		steps, every := 4000, 50
		if n > 4096 {
			steps, every = 1500, 100
		}
		for step := 0; step < steps; step++ {
			i := rng.Intn(n)
			switch op := rng.Intn(400); {
			case op < 180:
				b.add(i)
				ref[i] = true
			case op < 340:
				b.drop(i)
				delete(ref, i)
			case op < 360:
				b.clearAll()
				clear(ref)
			case op < 362:
				b.fill(n)
				for k := 0; k < n; k++ {
					ref[k] = true
				}
			case op < 390:
				// Round-trip through a second set that holds something
				// else first: the copy must replace, not merge.
				other.clearAll()
				other.add(rng.Intn(n))
				other.copyFrom(&b)
				b.clearAll()
				b.add(rng.Intn(n))
				b.copyFrom(&other)
				checkSummary(t, &other)
			default:
				if b.has(i) != ref[i] {
					t.Fatalf("n=%d step %d: has(%d) = %v, want %v", n, step, i, b.has(i), ref[i])
				}
			}
			if b.len() != len(ref) {
				t.Fatalf("n=%d step %d: len = %d, want %d", n, step, b.len(), len(ref))
			}
			if step%every == 0 {
				checkSummary(t, &b)
				if got, want := collect(&b), members(); !slices.Equal(got, want) {
					t.Fatalf("n=%d step %d: members diverge: got %d, want %d", n, step, len(got), len(want))
				}
			}
		}
		checkSummary(t, &b)
		if got, want := collect(&b), members(); !slices.Equal(got, want) {
			t.Fatalf("n=%d: final members diverge: got %d members, want %d", n, len(got), len(want))
		}
	}
}

// TestBitsetChunkedScan: a walk resumed at any word — what every phase
// loop does after consuming one (scan(w+1)) — visits exactly the members
// of that word and the later ones, whichever summary word the resumption
// point falls in.
func TestBitsetChunkedScan(t *testing.T) {
	for _, n := range setSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		for _, density := range []int{1, 3, 40} { // members per 64 ids, roughly
			var b bitset
			b.sizeTo(n)
			for k := 0; k < 1+n*density/64; k++ {
				b.add(rng.Intn(n))
			}
			b.add(0)
			b.add(n - 1)
			full := collect(&b)
			words := len(b.words)
			for _, from := range []int{0, 1, 63, 64, 65, words / 2, words - 1, words, words + 1} {
				at, _ := slices.BinarySearch(full, from<<6)
				if got := collectFrom(&b, from); !slices.Equal(got, full[at:]) {
					t.Fatalf("n=%d density=%d: walk from word %d visits %d members, want %d", n, density, from, len(got), len(full)-at)
				}
			}
		}
	}
}

// TestBitsetDropWhileScanning pins the one mutation the phase loops
// make to the set they walk: dropping the member they stand on
// (readPhase does). Every member is still visited once,
// including across a word whose last member was just dropped, and the
// set ends empty with a clean summary.
func TestBitsetDropWhileScanning(t *testing.T) {
	for _, n := range setSizes {
		var b bitset
		b.sizeTo(n)
		var want []int
		for i := 0; i < n; i += 1 + i%7*9 {
			b.add(i)
			want = append(want, i)
		}
		var got []int
		var seen int
		for w, word := b.scan(0, &seen); word != 0; w, word = b.scan(w+1, &seen) {
			for ; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				got = append(got, i)
				b.drop(i)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: visited %d members while dropping, want %d", n, len(got), len(want))
		}
		if b.len() != 0 {
			t.Fatalf("n=%d: %d members left", n, b.len())
		}
		checkSummary(t, &b)
	}
}

// TestBitsetSwap replays grantPhase's armed/armedScratch exchange: the
// two sets swap by value, the old armed set is walked and then emptied
// while new members land in the other, round after round. A set's words
// and summary are windows of one allocation, so both must travel with
// the struct.
func TestBitsetSwap(t *testing.T) {
	for _, n := range setSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		var armed, scratch bitset
		armed.sizeTo(n)
		armed.fill(n)
		scratch.sizeTo(n)
		want := make([]int, n) // round 0 visits everything, as cycle 0 does
		for i := range want {
			want[i] = i
		}
		for round := 0; round < 6; round++ {
			armed, scratch = scratch, armed
			var next []int
			for k, i := range collect(&scratch) {
				if i != want[k] {
					t.Fatalf("n=%d round %d: visit %d is %d, want %d", n, round, k, i, want[k])
				}
				// Re-arm some pools mid-walk, the visited one included:
				// they belong to the next round.
				for _, j := range []int{i, rng.Intn(n)} {
					if rng.Intn(3) == 0 && !armed.has(j) {
						armed.add(j)
						next = append(next, j)
					}
				}
			}
			if got := scratch.len(); got != len(want) {
				t.Fatalf("n=%d round %d: walked set holds %d, want %d", n, round, got, len(want))
			}
			scratch.clearAll()
			checkSummary(t, &armed)
			checkSummary(t, &scratch)
			slices.Sort(next)
			want = next
		}
	}
}
