package server

import (
	"strconv"
	"sync"
	"sync/atomic"
)

// maxResults bounds the retained result documents.
const maxResults = 256

// resultStore retains the marshaled response documents of prior
// /v1/analyze, /v1/run, and /v1/sweep requests, bounded FIFO (the
// newest maxResults), so GET /v1/results/{id} can replay exactly what
// the submitter saw.
type resultStore struct {
	seq   atomic.Int64 // last reserved id; outside mu so reserving one takes no lock
	mu    sync.Mutex
	order []string // insertion order; front is the oldest retained id
	items map[string][]byte
}

func newResultStore() *resultStore {
	return &resultStore{items: make(map[string][]byte)}
}

// nextID reserves a result identifier: "r-" and the sequence number,
// zero-padded to eight digits — fmt's "r-%08d", built on the stack.
func (s *resultStore) nextID() string {
	const pad = "r-00000000"
	var digits [20]byte
	n := strconv.AppendInt(digits[:0], s.seq.Add(1), 10)
	var id [len(pad) + len(digits)]byte
	b := append(id[:0], pad[:max(len("r-"), len(pad)-len(n))]...)
	return string(append(b, n...))
}

// save retains a response document under its id, evicting the oldest
// documents beyond the bound.
func (s *resultStore) save(id string, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.items[id]; dup {
		return
	}
	s.items[id] = body
	s.order = append(s.order, id)
	for len(s.order) > maxResults {
		delete(s.items, s.order[0])
		s.order = s.order[1:]
	}
}

// get returns the stored document for an id.
func (s *resultStore) get(id string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.items[id]
	return b, ok
}

// len reports how many documents are retained.
func (s *resultStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}
