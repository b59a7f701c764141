package machine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"math/rand"
	"strings"
	"testing"

	"systolic/internal/gen"
	"systolic/internal/model"
	"systolic/internal/topology"
)

// scenarioKeyReference is the serialization as it was written before
// it streamed through digestWriter: one hash Write per integer and an
// io.WriteString per name. The content addresses are persistent (cache
// keys, wire replies), so the streamed form must hash to the same bytes.
func scenarioKeyReference(p *model.Program, t topology.Topology, routes [][]topology.Hop, labels []int) string {
	h := sha256.New()
	writeScenarioReference(h, p, t, routes, labels)
	return hex.EncodeToString(h.Sum(nil))
}

func writeScenarioReference(h hash.Hash, p *model.Program, t topology.Topology, routes [][]topology.Hop, labels []int) {
	var buf [8]byte
	u := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	str := func(s string) {
		u(len(s))
		io.WriteString(h, s)
	}

	io.WriteString(h, "systolic-scenario-v1\x00")

	u(p.NumCells())
	for _, c := range p.Cells() {
		str(c.Name)
		host := 0
		if c.Host {
			host = 1
		}
		u(host)
	}

	u(p.NumMessages())
	for _, msg := range p.Messages() {
		str(msg.Name)
		u(int(msg.Sender))
		u(int(msg.Receiver))
		u(msg.Words)
	}

	for _, c := range p.Cells() {
		code := p.Code(c.ID)
		u(len(code))
		for _, op := range code {
			u(int(op.Kind))
			u(int(op.Msg))
		}
	}

	str(t.Name())
	links := t.Links()
	u(len(links))
	for _, l := range links {
		u(int(l.A))
		u(int(l.B))
	}

	io.WriteString(h, "routes\x00")
	u(len(routes))
	for _, rt := range routes {
		u(len(rt))
		for _, hop := range rt {
			u(int(hop.Link))
			u(int(hop.From))
			u(int(hop.To))
		}
	}

	io.WriteString(h, "labels\x00")
	u(len(labels))
	for _, l := range labels {
		u(l)
	}
}

// fpProgram builds a small two-message relay used by the fingerprint
// tests.
func fpProgram(t *testing.T, words int) *model.Program {
	t.Helper()
	b := model.NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	c3 := b.AddCell("C3")
	a := b.DeclareMessage("A", c1, c2, words)
	bb := b.DeclareMessage("B", c2, c3, words)
	for i := 0; i < words; i++ {
		b.Write(c1, a)
	}
	for i := 0; i < words; i++ {
		b.Read(c2, a)
		b.Write(c2, bb)
	}
	for i := 0; i < words; i++ {
		b.Read(c3, bb)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func TestScenarioKeyStable(t *testing.T) {
	p1 := fpProgram(t, 2)
	p2 := fpProgram(t, 2)
	topo := topology.Linear(3)
	k1 := ScenarioKey(p1, topo, nil, nil)
	k2 := ScenarioKey(p2, topology.Linear(3), nil, nil)
	if k1 != k2 {
		t.Fatalf("structurally identical scenarios hash differently:\n%s\n%s", k1, k2)
	}
	if len(k1) != 64 {
		t.Fatalf("key %q is not a hex sha256", k1)
	}
}

func TestScenarioKeySensitivity(t *testing.T) {
	base := fpProgram(t, 2)
	topo := topology.Linear(3)
	baseKey := ScenarioKey(base, topo, nil, nil)

	if k := ScenarioKey(fpProgram(t, 3), topo, nil, nil); k == baseKey {
		t.Fatal("changing word counts did not change the key")
	}
	if k := ScenarioKey(base, topology.Ring(3), nil, nil); k == baseKey {
		t.Fatal("changing the topology did not change the key")
	}
	routes, err := topology.Routes(base, topo)
	if err != nil {
		t.Fatalf("routes: %v", err)
	}
	if k := ScenarioKey(base, topo, routes, nil); k == baseKey {
		t.Fatal("adding routes did not change the key")
	}
	if ScenarioKey(base, topo, routes, []int{1, 2}) == ScenarioKey(base, topo, routes, []int{2, 1}) {
		t.Fatal("permuting labels did not change the key")
	}
}

func TestMachineFingerprintMatchesScenarioKey(t *testing.T) {
	p := fpProgram(t, 2)
	topo := topology.Linear(3)
	routes, err := topology.Routes(p, topo)
	if err != nil {
		t.Fatalf("routes: %v", err)
	}
	labels := []int{1, 1}
	m, err := Compile(p, topo, routes, labels)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	want := ScenarioKey(p, topo, routes, labels)
	if got := m.Fingerprint(); got != want {
		t.Fatalf("Fingerprint %s != ScenarioKey %s", got, want)
	}

	// A second compile of the same inputs yields the same fingerprint.
	m2, err := Compile(fpProgram(t, 2), topology.Linear(3), nil, labels)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if m2.Fingerprint() != want {
		t.Fatal("recompiled machine has a different fingerprint")
	}
}

// TestScenarioKeyMatchesReference: the streamed serialization hashes to
// the reference writer's key on 200 generated programs, each bare, with
// routes, with labels and with both, and on a program whose names run
// past the stream's buffer (a name split across two flushes).
func TestScenarioKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(name string, p *model.Program, topo topology.Topology) {
		t.Helper()
		routes, err := topology.Routes(p, topo)
		if err != nil {
			t.Fatalf("%s: routes: %v", name, err)
		}
		labels := make([]int, p.NumMessages())
		for i := range labels {
			labels[i] = rng.Intn(5) - 1
		}
		for _, in := range []struct {
			routes [][]topology.Hop
			labels []int
		}{{nil, nil}, {routes, nil}, {nil, labels}, {routes, labels}} {
			if got, want := ScenarioKey(p, topo, in.routes, in.labels), scenarioKeyReference(p, topo, in.routes, in.labels); got != want {
				t.Fatalf("%s (routes %v, labels %v): key %s, reference %s", name, in.routes != nil, in.labels != nil, got, want)
			}
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		sc, err := gen.Generate(seed, gen.Options{})
		if err != nil {
			t.Fatal(err)
		}
		check(sc.Name, sc.Program, sc.Topology)
	}
	b := model.NewBuilder()
	c1 := b.AddCell(strings.Repeat("a", 700))
	c2 := b.AddCell(strings.Repeat("b", 1500))
	m := b.DeclareMessage(strings.Repeat("m", 333), c1, c2, 2)
	b.WriteN(c1, m, 2).ReadN(c2, m, 2)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	check("long names", p, topology.Linear(2))
}

// TestAllocGateScenarioKey: hashing a scenario allocates a fixed number
// of times however large it is — the hash, the stream's buffer and the
// hex key. A Write per integer through the hash interface, or a name
// converted to a []byte, made it 8 062 allocations on the 4 000-cell
// chain.
func TestAllocGateScenarioKey(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	allocs := func(cells int) float64 {
		p, topo := sparseChain(t, cells, 4), topology.Linear(cells)
		routes, err := topology.Routes(p, topo)
		if err != nil {
			t.Fatal(err)
		}
		labels := make([]int, p.NumMessages())
		return testing.AllocsPerRun(3, func() { ScenarioKey(p, topo, routes, labels) })
	}
	short, long := allocs(2000), allocs(4000)
	t.Logf("ScenarioKey: %v allocations at 2000 cells, %v at 4000", short, long)
	if long != short || short > 6 {
		t.Errorf("ScenarioKey allocates %v times at 2000 cells and %v at 4000, budget 6 at both", short, long)
	}
}
