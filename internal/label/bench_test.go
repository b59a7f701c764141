package label

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkAssignGreedy(b *testing.B) {
	for _, size := range []struct{ cells, msgs int }{{4, 8}, {6, 16}, {8, 32}} {
		rng := rand.New(rand.NewSource(11))
		p := randomDF(b, rng, size.cells, size.msgs, 4)
		b.Run(fmt.Sprintf("cells=%d,msgs=%d", size.cells, size.msgs), func(b *testing.B) {
			for b.Loop() {
				if _, err := Assign(p, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAssignByOrder(b *testing.B) {
	for _, size := range []struct{ cells, msgs int }{{4, 8}, {6, 16}, {8, 32}} {
		rng := rand.New(rand.NewSource(11))
		p := randomDF(b, rng, size.cells, size.msgs, 4)
		b.Run(fmt.Sprintf("cells=%d,msgs=%d", size.cells, size.msgs), func(b *testing.B) {
			for b.Loop() {
				if _, err := assignByOrder(p, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRelated(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	p := randomDF(b, rng, 8, 32, 4)
	b.Run("cells=8,msgs=32", func(b *testing.B) {
		for b.Loop() {
			Related(p)
		}
	})
	// The deepest interleaving: 2048 messages in turn between two cells.
	deep := roundRobin(b, 2048, 200000)
	b.Run("depth=2048", func(b *testing.B) {
		for b.Loop() {
			Related(deep)
		}
		b.ReportMetric(float64(deep.TotalOps()), "ops")
	})
}

func BenchmarkCheck(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	p := randomDF(b, rng, 8, 32, 4)
	lab, err := Assign(p, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if err := Check(p, lab.ByMessage); err != nil {
			b.Fatal(err)
		}
	}
}
