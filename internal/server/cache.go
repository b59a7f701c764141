package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"systolic/internal/core"
	"systolic/internal/crossoff"
)

// cacheKey is a raw sha256 digest. Keys stay as fixed-size arrays so
// the hot-path map lookups allocate nothing.
type cacheKey = [sha256.Size]byte

// entry is one cached compiled scenario. ready is closed once compile
// (Analyze + machine build) finishes; until then a and err must not be
// read. Waiters hold the pointer directly, so an entry evicted while
// in flight still completes for everyone who found it.
type entry struct {
	canon    cacheKey
	ready    chan struct{}
	a        *core.Analysis
	err      error
	scenario string     // hex ScenarioKey(program, topology) for responses
	srcKeys  []string   // source-level aliases registered for this entry
	bodyKeys []cacheKey // body-level replies recorded for this entry, oldest first
}

// reply is one recorded answer of the body level: the encoded response
// document after its "id" value, immutable once recorded, and the entry
// it was computed from — whose LRU position a hit refreshes and whose
// eviction drops the reply.
type reply struct {
	el   *list.Element
	tail []byte
}

// wait blocks until the entry's compile has finished.
func (e *entry) wait() (*core.Analysis, error) {
	<-e.ready
	return e.a, e.err
}

// scenarioCache is the content-addressed compiled-machine cache at the
// heart of the serving layer. Entries are keyed canonically — a stable
// hash of the parsed program, topology, and analysis options (see
// machine.ScenarioKey) — so two textually different programs that
// parse to the same scenario share one compile. On top of that sits a
// source-level alias index: the raw (request text, options) hash maps
// straight to its entry, so a request for a resident program under new
// run options is one sha256 and one map probe away from its pooled run,
// with no parsing at all. And on top of that sits the body level: the
// hash of a whole request body (with its route and the tenant's cycle
// bound) maps to the encoded reply a run of it produced, so a repeated
// identical request is not decoded and runs nothing — a run is a pure
// function of its request.
//
// Concurrent misses on the same key are deduplicated singleflight
// style: the first request inserts an in-flight entry and compiles;
// everyone else finds the entry and waits on its ready channel. The
// LRU bound counts canonical entries; evicting one removes its
// aliases and its replies with it.
type scenarioCache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used; values are *entry
	byCanon map[cacheKey]*list.Element
	bySrc   map[cacheKey]*list.Element // source-alias fast path
	byBody  map[cacheKey]reply         // whole-request replies

	hits, misses, evictions atomic.Int64
	replyHits               atomic.Int64 // the hits that byBody answered
}

func newScenarioCache(max int) *scenarioCache {
	if max <= 0 {
		max = 128
	}
	return &scenarioCache{
		max:     max,
		ll:      list.New(),
		byCanon: make(map[cacheKey]*list.Element),
		bySrc:   make(map[cacheKey]*list.Element),
		byBody:  make(map[cacheKey]reply),
	}
}

// analysisKey is the analysis-options half of a cache key: everything
// besides the program that the compiled artifact depends on. The run
// path maps its AnalyzeSpec here (budget 0, R2-derived); the sweep
// path maps a lookahead axis value to a uniform budget override —
// exactly the options the sweep engine's in-engine analyze step would
// use, so a sweep's lookahead-0 grid points share cache entries with
// default /v1/run and /v1/analyze requests.
type analysisKey struct {
	lookahead bool
	capacity  int
	budget    int // uniform skip budget override; 0 = R2-derived
}

// runKey maps a request's AnalyzeSpec onto the cache key space.
func runKey(spec AnalyzeSpec) analysisKey {
	return analysisKey{lookahead: spec.Lookahead, capacity: spec.Capacity}
}

// sweepKey maps one sweep lookahead axis value onto the cache key
// space, mirroring the sweep engine's own analyze step: 0 is the
// strict procedure, n > 0 a uniform budget of n.
func sweepKey(lookahead int) analysisKey {
	if lookahead > 0 {
		return analysisKey{lookahead: true, budget: lookahead}
	}
	return analysisKey{}
}

// options lowers the key to the core analyzer's options.
func (k analysisKey) options() core.AnalyzeOptions {
	opts := core.AnalyzeOptions{Lookahead: k.lookahead, Capacity: k.capacity}
	if k.budget > 0 {
		opts.BudgetOverride = crossoff.UniformBudget(k.budget)
	}
	return opts
}

// optsLen is the size of an encoded analysisKey.
const optsLen = 17

// digestBytes encodes the key for hashing.
func (k analysisKey) digestBytes() [optsLen]byte {
	var b [optsLen]byte
	if k.lookahead {
		b[0] = 1
	}
	binary.LittleEndian.PutUint64(b[1:], uint64(int64(k.capacity)))
	binary.LittleEndian.PutUint64(b[9:], uint64(int64(k.budget)))
	return b
}

// srcDigest hashes a raw request (program text + analysis options)
// without parsing it. This is the only work a steady-state cache hit
// performs before the simulation itself. The text streams through one
// fixed buffer, two sha256 blocks at a time, instead of being copied
// whole into a []byte (sha256's digest has no WriteString); the digest
// is that of tag ‖ program ‖ options all the same.
func srcDigest(program string, key analysisKey) cacheKey {
	const tag = "sysdl-src-v2\x00"
	h := sha256.New()
	var buf [2 * sha256.BlockSize]byte
	n := copy(buf[:], tag)
	for {
		c := copy(buf[n:], program)
		n += c
		program = program[c:]
		if len(program) == 0 {
			break
		}
		h.Write(buf[:])
		n = 0
	}
	opts := key.digestBytes()
	if n+len(opts) > len(buf) {
		h.Write(buf[:n])
		n = 0
	}
	n += copy(buf[n:], opts[:])
	h.Write(buf[:n])
	var k cacheKey
	h.Sum(k[:0])
	return k
}

// canonDigest folds the canonical scenario hash with the analysis
// options into a cache key. The input has a fixed size, so it is laid
// out in one array and hashed in one call.
func canonDigest(scenarioKey string, key analysisKey) cacheKey {
	const tag = "sysdl-canon-v2\x00"
	// Sized for a ScenarioKey's 64 hex digits; a longer key spills.
	var in [len(tag) + 2*sha256.Size + optsLen]byte
	buf := append(in[:0], tag...)
	buf = append(buf, scenarioKey...)
	opts := key.digestBytes()
	buf = append(buf, opts[:]...)
	return sha256.Sum256(buf)
}

// lookupSrc is the alias fast path: a hit returns the entry (possibly
// still compiling — the caller waits on it) and counts as a cache hit.
func (c *scenarioCache) lookupSrc(src cacheKey) (*entry, bool) {
	c.mu.Lock()
	el, ok := c.bySrc[src]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.mu.Unlock()
	c.hits.Add(1)
	return el.Value.(*entry), true
}

// lookupBody is the body level's probe: a hit returns the recorded
// reply tail, refreshes its entry's LRU position and counts as a cache
// hit exactly as an alias hit does. nil is a miss.
func (c *scenarioCache) lookupBody(key cacheKey) []byte {
	c.mu.Lock()
	r, ok := c.byBody[key]
	if !ok {
		c.mu.Unlock()
		return nil
	}
	c.ll.MoveToFront(r.el)
	c.mu.Unlock()
	c.hits.Add(1)
	c.replyHits.Add(1)
	return r.tail
}

// recordReply files the reply a request body got under the entry it was
// computed from, unless that entry has left the cache meanwhile: no
// reply outlives its entry. An entry keeps its maxReplies most recently
// recorded bodies, so a flood of one-off option mixes cannot grow
// memory unboundedly, nor shut a later hot body out.
func (c *scenarioCache) recordReply(e *entry, key cacheKey, tail []byte) {
	const maxReplies = 64
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byCanon[e.canon]
	if !ok || el.Value.(*entry) != e {
		return
	}
	if _, dup := c.byBody[key]; dup {
		return
	}
	if len(e.bodyKeys) >= maxReplies {
		delete(c.byBody, e.bodyKeys[0])
		e.bodyKeys = append(e.bodyKeys[:0], e.bodyKeys[1:]...)
	}
	c.byBody[key] = reply{el: el, tail: tail}
	e.bodyKeys = append(e.bodyKeys, key)
}

// getOrCompile returns the entry for a canonical key, compiling it via
// compile() exactly once no matter how many requests race here. src is
// registered as an alias so the next textually identical request skips
// the parse. Finding an existing entry — even one still compiling —
// counts as a hit (hit true); only the request that triggers the
// compile counts a miss.
func (c *scenarioCache) getOrCompile(canon, src cacheKey, scenario string, compile func() (*core.Analysis, error)) (_ *entry, hit bool) {
	c.mu.Lock()
	if el, ok := c.byCanon[canon]; ok {
		c.ll.MoveToFront(el)
		c.addAliasLocked(el, src)
		c.mu.Unlock()
		c.hits.Add(1)
		return el.Value.(*entry), true
	}
	e := &entry{canon: canon, ready: make(chan struct{}), scenario: scenario}
	el := c.ll.PushFront(e)
	c.byCanon[canon] = el
	c.addAliasLocked(el, src)
	for c.ll.Len() > c.max {
		c.evictLocked()
	}
	c.mu.Unlock()
	c.misses.Add(1)

	e.a, e.err = compile()
	close(e.ready)
	if e.err != nil {
		// Do not cache failures: a failed compile is cheap to rediscover
		// and caching it would pin a broken scenario for its LRU
		// lifetime.
		c.remove(e)
	}
	return e, false
}

// addAliasLocked registers a source alias for an entry, bounded so a
// flood of textual variants of one scenario cannot grow memory
// unboundedly.
func (c *scenarioCache) addAliasLocked(el *list.Element, src cacheKey) {
	if existing, ok := c.bySrc[src]; ok && existing == el {
		return
	}
	e := el.Value.(*entry)
	const maxAliases = 8
	if len(e.srcKeys) >= maxAliases {
		return
	}
	c.bySrc[src] = el
	e.srcKeys = append(e.srcKeys, string(src[:]))
}

// evictLocked drops the least recently used entry, its aliases and its
// replies.
func (c *scenarioCache) evictLocked() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	c.dropLocked(el)
	c.evictions.Add(1)
}

// remove deletes a specific entry (used to un-cache failed compiles);
// it does not count as an eviction. The pointer comparison guards
// against dropping a newer entry that replaced e after an eviction.
func (c *scenarioCache) remove(e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byCanon[e.canon]; ok && el.Value.(*entry) == e {
		c.dropLocked(el)
	}
}

func (c *scenarioCache) dropLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.byCanon, e.canon)
	for _, s := range e.srcKeys {
		var k cacheKey
		copy(k[:], s)
		if c.bySrc[k] == el {
			delete(c.bySrc, k)
		}
	}
	e.srcKeys = nil
	for _, k := range e.bodyKeys {
		delete(c.byBody, k)
	}
	e.bodyKeys = nil
}

// len reports the number of cached canonical entries and of replies
// recorded under them.
func (c *scenarioCache) len() (entries, replies int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), len(c.byBody)
}
