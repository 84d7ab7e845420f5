package main

import (
	"testing"

	"accentmig/internal/experiments"
	"accentmig/internal/workload"
)

// The lane gate must catch any divergence between the sequential and
// sharded results, not only pass on equal ones.
func TestShardGateFires(t *testing.T) {
	o := experiments.ShardStressOptions{Machines: 16}
	seq, _, err := experiments.RunShardStress(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Shards = 2
	lanes, _, err := experiments.RunShardStress(o)
	if err != nil {
		t.Fatal(err)
	}
	if !shardsMatch(seq, lanes) {
		t.Fatal("sharded run differs from sequential on an unmodified program")
	}
	lanes.Migrations[len(lanes.Migrations)/2].FetchStall++
	if shardsMatch(seq, lanes) {
		t.Fatal("gate passed a sharded result with one migration altered")
	}
	rep := &report{}
	rep.check(shardsMatch(seq, lanes), "mismatch")
	if rep.Checks != 1 || len(rep.Problems) != 1 {
		t.Fatalf("mismatch not counted as a failed check: %+v", rep)
	}
}

// The probe runner must reproduce the engine's grid, and a cell that
// disagrees must count as a failure.
func TestGridAgreementGateFires(t *testing.T) {
	cfg := experiments.Config{}
	g, err := experiments.NewEngine(2).RunGrid(cfg, workload.Kinds())
	if err != nil {
		t.Fatal(err)
	}
	gr, err := gridProbe(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep := &report{}
	gr.agree(g, rep)
	if len(rep.Problems) != 0 {
		t.Fatalf("probe runner disagrees with the engine: %v", rep.Problems)
	}
	gr.cells[3].bytes++
	gr.agree(g, rep)
	if rep.Checks != 2 || len(rep.Problems) != 1 {
		t.Fatalf("altered cell not counted as a failed check: %+v", rep)
	}
}

// Every simulated metric must be positive on the default inputs, since
// the benchmark's bounds are shares of the metric.
func TestSimMetricsNonZero(t *testing.T) {
	res, _, err := experiments.RunShardStress(experiments.ShardStressOptions{Machines: 16})
	if err != nil {
		t.Fatal(err)
	}
	m := clusterSim(res)
	for name, v := range map[string]float64{
		"bytes": m.BytesMB, "msg": m.MsgS, "total": m.TotalS,
		"down_p50": m.DownP50MS, "down_max": m.DownMaxMS, "stall": m.FaultStallMS,
	} {
		if v <= 0 {
			t.Errorf("cluster %s = %v, want > 0", name, v)
		}
	}
}
