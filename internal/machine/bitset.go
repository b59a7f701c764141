package machine

// Word-packed ready sets. The scheduler's per-cycle sets — dirty
// cells, armed pools, the transport/writer/moved/reqCheck message
// sets — used to be (index slice, bool slice) pairs: the slice gave
// iteration order (sorted at use), the flags gave O(1) membership.
// A bitset gives both at once: membership is one bit, and iterating
// set bits with TrailingZeros64 visits entries in ascending id order
// by construction, so the per-cycle slices.Sort calls and the O(n)
// sorted insertions disappear entirely. At 32×32-mesh scale a set
// over every message is 1–2 cache lines instead of a pointer-chased
// pair of slices.
//
// Above the member words sits one summary level: bit w of the summary
// is set exactly when words[w] is non-zero. A scan reads the summary
// to find the next non-empty word, so a set with two members out of
// 4096 costs one summary word and two member words to walk, not 64
// words; a dense set pays one scan step per 64 members.
//
// Iteration contract. Every phase loop is word-granular:
//
//	for w, word := s.scan(0, &v); word != 0; w, word = s.scan(w+1, &v) {
//		for ; word != 0; word &= word - 1 {
//			i := w<<6 | bits.TrailingZeros64(word)
//			...
//		}
//	}
//
// scan hands out a *copy* of the next non-empty word and the inner
// loop consumes that copy in a register. The members visited are
// therefore ascending, and what a loop observes of changes made to the
// set while it runs is decided per word, at the moment scan returns it:
//
//   - dropping the current member or any already-visited one is safe
//     and changes nothing about the rest of the walk;
//   - a member of the current word that is dropped before the loop
//     reaches it is still visited, and one added to the current word is
//     not (the copy is already taken);
//   - members added to or dropped from a later word are seen as they
//     stand when the walk gets there; changes behind the cursor are
//     never observed.
//
// The scheduler only ever relies on the first rule (readPhase drops the
// member it stands on); every other phase mutates sets other than the
// one it walks. A bitset is not safe for concurrent use; a run is one
// goroutine.

import "math/bits"

// bitset is a set of small non-negative integers with a cached
// cardinality and a one-level summary. The zero value is an empty set
// of capacity 0; sizeTo prepares it for a run.
type bitset struct {
	// words holds the members; sum holds one bit per word, set exactly
	// when that word is non-zero. Both are windows of one allocation,
	// words first, so a set costs one allocation.
	words []uint64
	sum   []uint64
	count int
}

// sizeTo empties the set and sizes it for members in [0, n).
func (b *bitset) sizeTo(n int) {
	w := (n + 63) >> 6
	s := (w + 63) >> 6
	buf := grow(b.words, w+s)
	clear(buf)
	b.words, b.sum = buf[:w], buf[w:w+s]
	b.count = 0
}

// add inserts i.
func (b *bitset) add(i int) {
	w, bit := i>>6, uint64(1)<<(i&63)
	if b.words[w]&bit == 0 {
		b.words[w] |= bit
		b.sum[w>>6] |= uint64(1) << (w & 63)
		b.count++
	}
}

// drop removes i.
func (b *bitset) drop(i int) {
	w, bit := i>>6, uint64(1)<<(i&63)
	if b.words[w]&bit != 0 {
		b.words[w] &^= bit
		if b.words[w] == 0 {
			b.sum[w>>6] &^= uint64(1) << (w & 63)
		}
		b.count--
	}
}

// has reports membership of i.
func (b *bitset) has(i int) bool {
	return b.words[i>>6]&(uint64(1)<<(i&63)) != 0
}

// len returns the number of members.
func (b *bitset) len() int { return b.count }

// clearAll empties the set, keeping its capacity. It zeroes the words
// the summary names, so emptying a sparse set costs its members, not
// its capacity.
func (b *bitset) clearAll() {
	if b.count == 0 {
		return
	}
	for s, m := range b.sum {
		for ; m != 0; m &= m - 1 {
			b.words[s<<6|bits.TrailingZeros64(m)] = 0
		}
		b.sum[s] = 0
	}
	b.count = 0
}

// fill makes the set exactly [0, n). The set must be sized for n.
func (b *bitset) fill(n int) {
	fillPrefix(b.words, n)
	fillPrefix(b.sum, (n+63)>>6)
	b.count = n
}

// fillPrefix sets bits [0, n) of the bit array ws and clears the rest.
func fillPrefix(ws []uint64, n int) {
	full := n >> 6
	for i := range ws[:full] {
		ws[i] = ^uint64(0)
	}
	clear(ws[full:])
	if r := n & 63; r != 0 {
		ws[full] = uint64(1)<<r - 1
	}
}

// copyFrom makes b an exact copy of src, which must be sized like b.
// Like clearAll it follows the summaries, so the copy costs the two
// sets' non-empty words.
func (b *bitset) copyFrom(src *bitset) {
	b.clearAll()
	for s, m := range src.sum {
		b.sum[s] = m
		for ; m != 0; m &= m - 1 {
			w := s<<6 | bits.TrailingZeros64(m)
			b.words[w] = src.words[w]
		}
	}
	b.count = src.count
}

// scan is the outer step of the iteration idiom in the header: it
// finds the first non-empty word at index w or later and returns its
// index and a copy of it; a zero word means the set is exhausted. Empty
// words are skipped through the summary, so a walk costs one step per
// non-empty word however large the set. tally counts the summary and
// member words read, for the clock-free scan-cost test.
//
// scan itself is small enough to inline: the step past the set's end —
// every walk takes one, and a one-word set's walk is little else —
// costs a compare, not a call.
func (b *bitset) scan(w int, tally *int) (int, uint64) {
	if w >= len(b.words) {
		return 0, 0
	}
	return b.scanFrom(w, tally)
}

// scanFrom is scan's body; w < len(b.words). It is kept out of line so
// that scan stays within the inlining budget: the loops pay for a call
// only when there is a word to look for.
//
//go:noinline
func (b *bitset) scanFrom(w int, tally *int) (int, uint64) {
	for w < len(b.words) {
		s := w >> 6
		*tally++
		rest := b.sum[s] >> (w & 63) << (w & 63)
		if rest == 0 {
			w = (s + 1) << 6
			continue
		}
		// A summary bit is set exactly when its word is non-zero.
		w = s<<6 | bits.TrailingZeros64(rest)
		*tally++
		return w, b.words[w]
	}
	return 0, 0
}
