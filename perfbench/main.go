// Command perfprobe is the in-process half of the repository benchmark
// (run.py runs it). Each subcommand runs in a fresh process and
// prints one JSON object on standard output:
//
//	perfprobe ready        start up and exit: the program's start-up cost
//	perfprobe cluster      one timed shard-stress run
//	perfprobe clustercheck the sequential and lane runs of one seed, DeepEqual-compared
//	perfprobe sim          the simulated end-to-end metrics of a paper or transport run
//	perfprobe trace        the traced pass of one workload
//	perfprobe layers       every layer probe, plus the kernel work of the workload
//
// It calls only the program's public packages and instruments nothing
// inside them: every span is taken here, around a call.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"

	"accentmig/internal/experiments"
	"accentmig/internal/workload"
	"accentmig/internal/xrand"
)

// clusterMachines is the cluster size of the cluster64 workload, in
// both kernel modes.
const clusterMachines = 64

// shardStressSeed is the scenario's own default seed; the benchmark
// seed offsets it, so benchmark seed 0 runs the default scenario.
const shardStressSeed = 1987

type options struct {
	workload string
	seed     uint64
	parallel int
	shards   int
	cacheDir string
	scratch  string
}

// report is what every subcommand prints. Problems are failed
// correctness checks; run.py counts each as a failed output.
type report struct {
	Sim      *simMetrics        `json:"sim,omitempty"`
	Events   uint64             `json:"events"`
	Digest   string             `json:"digest,omitempty"`
	PassWall float64            `json:"pass_wall_s,omitempty"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
	Spans    []span             `json:"spans,omitempty"`
	Checks   int                `json:"checks"`
	Problems []string           `json:"problems"`
}

func (r *report) check(ok bool, format string, args ...any) {
	r.Checks++
	if !ok {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: perfprobe ready|cluster|clustercheck|sim|trace|layers [flags]")
		os.Exit(2)
	}
	cmd := os.Args[1]
	var o options
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "benchmark workload name")
	fs.Uint64Var(&o.seed, "seed", 0, "benchmark seed")
	fs.IntVar(&o.parallel, "parallel", 1, "engine worker-pool width")
	fs.IntVar(&o.shards, "shards", 1, "shard-stress lane workers (1 = sequential kernel)")
	fs.StringVar(&o.cacheDir, "cache", "", "filled memo-cache directory (paper_warm)")
	fs.StringVar(&o.scratch, "scratch", "", "directory the probes may write")
	_ = fs.Parse(os.Args[2:]) // ExitOnError: Parse exits on bad flags

	xrand.SetBaseSeed(o.seed)
	experiments.SetWorkers(o.parallel)
	rep := &report{Problems: []string{}}
	var err error
	switch cmd {
	case "ready":
	case "cluster":
		err = runCluster(o, rep)
	case "clustercheck":
		err = runClusterCheck(o, rep)
	case "sim":
		err = runSim(o, rep)
	case "trace":
		err = runTrace(o, rep)
	case "layers":
		err = runLayers(o, rep)
	default:
		err = fmt.Errorf("unknown subcommand %q", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfprobe:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfprobe:", err)
		os.Exit(1)
	}
}

func clusterOptions(o options, shards int) experiments.ShardStressOptions {
	return experiments.ShardStressOptions{Machines: clusterMachines, Shards: shards, Seed: shardStressSeed + o.seed}
}

// runCluster is one timed shard-stress run; run.py times the whole
// process, so nothing else happens here.
func runCluster(o options, rep *report) error {
	res, perf, err := experiments.RunShardStress(clusterOptions(o, o.shards))
	if err != nil {
		return err
	}
	sm := clusterSim(res)
	rep.Sim = &sm
	rep.Events = perf.Events
	rep.Digest = digest(res)
	return nil
}

// shardsMatch is the lane gate: the sharded result must DeepEqual the
// sequential one for the same seed.
func shardsMatch(seq, lanes *experiments.ShardStressResult) bool {
	return reflect.DeepEqual(seq, lanes)
}

func runClusterCheck(o options, rep *report) error {
	seq, _, err := experiments.RunShardStress(clusterOptions(o, 1))
	if err != nil {
		return err
	}
	lanes, _, err := experiments.RunShardStress(clusterOptions(o, o.shards))
	if err != nil {
		return err
	}
	rep.check(shardsMatch(seq, lanes), "cluster: %d-lane result differs from the sequential kernel (seed %d)", o.shards, o.seed)
	rep.Digest = digest(seq)
	return nil
}

// runSim computes the simulated metrics of a paper or transport run
// through the program's own engine, and cross-checks the benchmark's
// probe runner against it on every cell it restates.
func runSim(o options, rep *report) error {
	cfg := experiments.Config{}
	switch o.workload {
	case "paper":
		g, err := experiments.RunGrid(cfg, workload.Kinds())
		if err != nil {
			return err
		}
		sm := paperSim(g)
		rep.Sim = &sm
		gp, err := gridProbe(cfg, o.parallel)
		if err != nil {
			return err
		}
		rep.Events = gp.events
		gp.agree(g, rep)
	case "transport":
		pt, err := experiments.Pipeline(cfg, workload.Kinds())
		if err != nil {
			return err
		}
		dt, err := experiments.Dedup(cfg, workload.Kinds())
		if err != nil {
			return err
		}
		sm := transportSim(pt, dt)
		rep.Sim = &sm
		ev, err := pipelineProbe(cfg, pt, o.parallel, rep)
		if err != nil {
			return err
		}
		rep.Events = ev
	default:
		return fmt.Errorf("sim: unknown workload family %q", o.workload)
	}
	return nil
}
