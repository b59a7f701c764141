package cli

import (
	"flag"
	"io"
	"slices"
	"strings"
	"testing"
)

// TestFlagsPerVerb: each verb binds exactly the flags whose options it
// reads, so the flag package refuses the rest.
func TestFlagsPerVerb(t *testing.T) {
	profiling := []string{"cpuprofile", "memprofile"}
	analysis := []string{"capacity", "lookahead"}
	want := map[string][]string{
		"check":  nil,
		"render": nil,
		"label":  analysis,
		"plan":   analysis,
		"run": append([]string{"fault", "force", "link-model", "policy", "queues", "seed", "stats", "timeline"},
			analysis...),
		"sweep": {"fault", "seed", "sweep-capacities", "sweep-link-models", "sweep-lookaheads",
			"sweep-policies", "sweep-queues", "workers"},
		"fuzz": {"fault", "faults", "fuzz-cells", "fuzz-cyclic", "fuzz-interleave", "fuzz-lookahead",
			"fuzz-mutations", "fuzz-topology", "link-models", "n", "queues", "seed", "workers"},
		"serve": {"addr", "cache-size", "max-concurrency", "queue-wait", "tenants"},
	}
	for verb, names := range want {
		names = append(slices.Clone(names), profiling...)
		slices.Sort(names)
		opts := DefaultSysdlOptions()
		fs := flag.NewFlagSet(verb, flag.ContinueOnError)
		opts.BindFlags(fs, verb)
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
		if !slices.Equal(got, names) {
			t.Errorf("%s binds %v, want %v", verb, got, names)
		}
	}
}

// TestFlagsOfOtherVerbsRefused: a flag another verb reads is a usage
// error, not silently ignored.
func TestFlagsOfOtherVerbsRefused(t *testing.T) {
	for _, c := range []struct {
		verb, args string
	}{
		{"sweep", "-link-model fixed,delay=3"},
		{"sweep", "-capacity 4"},
		{"fuzz", "-n 3 -link-model fixed,delay=3"},
		{"fuzz", "-n 3 -sweep-link-models fixed,delay=3"},
		{"run", "-sweep-queues 1,2 -n 7 -addr x"},
	} {
		opts := DefaultSysdlOptions()
		fs := flag.NewFlagSet(c.verb, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		opts.BindFlags(fs, c.verb)
		if err := fs.Parse(strings.Fields(c.args)); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s %s: err %v, want an undefined flag", c.verb, c.args, err)
		}
	}
}
