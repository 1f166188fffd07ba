package main

import "testing"

// TestExtensionExperimentsSmoke runs the fast extension experiments end
// to end: they must complete without error and print their tables.
// The figure experiments (fig3-fig7) run to convergence and are covered
// by the root-level shape tests instead.
func TestExtensionExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cases := []struct {
		name string
		f    func() error
	}{
		{"fig12", fig12},
		{"validate", func() error { return validate(1) }},
		{"dqueues", func() error { return dynamicQueues(1) }},
		{"mpls", func() error { return mplsSync(1) }},
		{"failover", func() error { return failover(1) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.f(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
	}
}

// TestBenchInstance verifies the shared extension instance is congested
// (otherwise the extension experiments degenerate).
func TestBenchInstance(t *testing.T) {
	topo, mat, err := benchInstance(1)
	if err != nil {
		t.Fatalf("benchInstance: %v", err)
	}
	if topo.NumNodes() == 0 || mat.NumAggregates() == 0 {
		t.Fatal("empty instance")
	}
	if mat.TotalDemand() <= topo.TotalCapacity()/10 {
		t.Fatalf("instance too idle: demand %v vs capacity %v", mat.TotalDemand(), topo.TotalCapacity())
	}
}
