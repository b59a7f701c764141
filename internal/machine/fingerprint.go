package machine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"systolic/internal/model"
	"systolic/internal/topology"
)

// ScenarioKey returns a stable content address for a scenario: a hex
// sha256 over a canonical binary serialization of the program (cells,
// messages, per-cell op streams), the topology (name and link set),
// and — when provided — the routes and dense labels. Two calls agree
// exactly when the four inputs are structurally identical, regardless
// of how the program was built (DSL text, builder calls, generation),
// which makes the key safe to use across processes and restarts.
//
// routes and labels may be nil: routing and labeling are deterministic
// functions of (program, topology, analysis options), so a key over
// the first two plus the options already content-addresses the whole
// compiled scenario. Compile-level callers that do hold routes and
// labels (see Machine.Fingerprint) include them so the key also pins
// the derived artifacts.
func ScenarioKey(p *model.Program, t topology.Topology, routes [][]topology.Hop, labels []int) string {
	w := digestWriter{h: sha256.New()}
	writeScenario(&w, p, t, routes, labels)
	w.flush()
	return hex.EncodeToString(w.h.Sum(w.buf[:0]))
}

// Fingerprint returns the machine's content address: the ScenarioKey
// of exactly what was compiled, routes and labels included. Equal
// fingerprints mean interchangeable machines.
func (m *Machine) Fingerprint() string {
	return ScenarioKey(m.prog, m.topo, m.routes, m.labels)
}

// digestWriter streams a serialization into a hash through one fixed
// buffer, handed over a whole number of sha256 blocks at a time: one
// Write per buffer instead of one per integer, and names copied into
// the buffer instead of converted to a []byte each (sha256's digest
// has no WriteString). The digest is that of the bytes written, so it
// equals a writer's that hands them over one field at a time.
type digestWriter struct {
	h   hash.Hash
	n   int
	buf [8 * sha256.BlockSize]byte
}

// flush hands the buffered bytes to the hash.
func (w *digestWriter) flush() {
	w.h.Write(w.buf[:w.n])
	w.n = 0
}

// num appends v as 8 little-endian bytes.
func (w *digestWriter) num(v int) {
	if w.n+8 > len(w.buf) {
		w.flush()
	}
	binary.LittleEndian.PutUint64(w.buf[w.n:], uint64(int64(v)))
	w.n += 8
}

// raw appends the bytes of s.
func (w *digestWriter) raw(s string) {
	for len(s) > 0 {
		if w.n == len(w.buf) {
			w.flush()
		}
		c := copy(w.buf[w.n:], s)
		w.n += c
		s = s[c:]
	}
}

// str appends s length-prefixed.
func (w *digestWriter) str(s string) {
	w.num(len(s))
	w.raw(s)
}

// writeScenario streams the canonical serialization into w. Every
// variable-length field is length-prefixed and every section is
// tagged, so no two distinct scenarios can collide by concatenation
// ambiguity.
func writeScenario(w *digestWriter, p *model.Program, t topology.Topology, routes [][]topology.Hop, labels []int) {
	w.raw("systolic-scenario-v1\x00")

	w.num(p.NumCells())
	for _, c := range p.Cells() {
		w.str(c.Name)
		host := 0
		if c.Host {
			host = 1
		}
		w.num(host)
	}

	w.num(p.NumMessages())
	for _, msg := range p.Messages() {
		w.str(msg.Name)
		w.num(int(msg.Sender))
		w.num(int(msg.Receiver))
		w.num(msg.Words)
	}

	for _, c := range p.Cells() {
		code := p.Code(c.ID)
		w.num(len(code))
		for _, op := range code {
			w.num(int(op.Kind))
			w.num(int(op.Msg))
		}
	}

	w.str(t.Name())
	links := t.Links()
	w.num(len(links))
	for _, l := range links {
		w.num(int(l.A))
		w.num(int(l.B))
	}

	w.raw("routes\x00")
	w.num(len(routes))
	for _, rt := range routes {
		w.num(len(rt))
		for _, hop := range rt {
			w.num(int(hop.Link))
			w.num(int(hop.From))
			w.num(int(hop.To))
		}
	}

	w.raw("labels\x00")
	w.num(len(labels))
	for _, l := range labels {
		w.num(l)
	}
}
