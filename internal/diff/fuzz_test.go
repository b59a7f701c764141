package diff

import (
	"testing"

	"systolic/internal/gen"
	"systolic/internal/workload"
)

// fuzzScenario resolves the family knob: 0 is a random generated
// scenario, 1–4 are the operator-graph workload families (attention,
// stencil, FFT, pipelined sort) with sizes derived from the seed.
// Returns nil when the knobs are impossible (not a finding).
func fuzzScenario(seed int64, gopts gen.Options, family uint8) *gen.Scenario {
	mod := func(m uint64) int { return int(uint64(seed) % m) }
	var w *workload.Workload
	var err error
	switch family {
	case 1:
		w, err = workload.Attention(workload.AttentionOptions{
			Tokens:  2 + mod(9),
			Experts: 1 + mod(4),
		})
	case 2:
		w, err = workload.Stencil(workload.StencilOptions{
			Rows:  2 + mod(3),
			Cols:  2 + mod(4),
			Iters: 1 + mod(3),
		})
	case 3:
		w, err = workload.FFT(workload.FFTOptions{LogN: 1 + mod(4)})
	case 4:
		w, err = workload.PipelinedSort(workload.PipelinedSortOptions{
			Width:  2 + mod(10),
			Rounds: 1 + mod(6),
		})
	default:
		sc, gerr := gen.Generate(seed, gopts)
		if gerr != nil {
			return nil
		}
		return sc
	}
	if err != nil {
		return nil
	}
	return &gen.Scenario{Seed: seed, Program: w.Program, Topology: w.Topology, Name: w.Name}
}

// FuzzOracle is the native fuzzing entry point: the input is a
// scenario seed plus the mutation, family, and fault-class knobs;
// everything else derives from them deterministically. Any invariant
// violation the oracle reports is a crash, so `go test -fuzz=Fuzz
// ./internal/diff` turns the coverage-guided fuzzer loose on the
// analyzer/simulator agreement — including the degraded-array
// invariants when faultClass injects a seeded fault plan (1 =
// periodic-only slowdowns, 2 = terminal faults allowed). The
// checked-in corpus under testdata/fuzz/FuzzOracle pins seeds
// covering every topology family, cyclic flow, mutated (rejected)
// programs, every workload family, and every fault class.
func FuzzOracle(f *testing.F) {
	f.Add(int64(1), uint8(0), false, uint8(0), uint8(0))
	f.Add(int64(17), uint8(3), false, uint8(0), uint8(0))
	f.Add(int64(23), uint8(1), true, uint8(0), uint8(1))
	f.Add(int64(404), uint8(5), true, uint8(0), uint8(2))
	f.Add(int64(5), uint8(0), false, uint8(1), uint8(1))
	f.Add(int64(7), uint8(0), false, uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, mutations uint8, cyclic bool, family uint8, faultClass uint8) {
		opts := Options{Gen: gen.Options{
			Mutations: int(mutations % 8),
			Cyclic:    cyclic,
		}}
		sc := fuzzScenario(seed, opts.Gen, family%5)
		if sc == nil {
			t.Skip() // impossible knobs, not a finding
		}
		switch faultClass % 3 {
		case 1:
			opts.Faults = gen.RandomFaults(seed, sc.Program.NumCells(),
				len(sc.Topology.Links()), gen.FaultOptions{SlowdownsOnly: true})
		case 2:
			opts.Faults = gen.RandomFaults(seed, sc.Program.NumCells(),
				len(sc.Topology.Links()), gen.FaultOptions{})
		}
		res := Check(sc, opts)
		for _, v := range res.Violations() {
			t.Fatalf("seed %d: %s", seed, v)
		}
	})
}
