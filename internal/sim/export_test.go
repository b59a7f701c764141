package sim

// ReferenceRun hands the full-scan oracle to the external test package,
// which — unlike this one — may import the workload generators.
var ReferenceRun = referenceRun
