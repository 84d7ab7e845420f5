// Command migsim runs the reproduction experiments: every table and
// figure of the paper's evaluation section, the §4.5 summary, and the
// design-choice ablations.
//
// Usage:
//
//	migsim -exp table4-1            # one experiment
//	migsim -exp all                 # everything (one shared parallel sweep)
//	migsim -exp figure4-1 -kinds Minprog,Chess
//	migsim -exp all -parallel 1     # force sequential trials
//	migsim -exp resilience          # fault-injection sweep
//	migsim -exp pipeline            # windowed-transport sweep (not part of 'all')
//	migsim -exp dedup               # content-addressed store sweep (not part of 'all')
//	migsim -exp summary -dedup      # any experiment with the page store on
//	migsim -exp summary -window 16  # any experiment under a pipelined transport
//	migsim -exp table4-5 -faults plan.json -max-retries 2
//	migsim -exp all -memo-cache   # warm reruns load trial results from .migcache/
//	migsim -exp all -cpuprofile cpu.out -memprofile mem.out  # profile the simulator itself
//	migsim -list
//
// Trials are scheduled by the experiments.Engine: independent grid
// cells simulate concurrently on a worker pool (default width
// GOMAXPROCS) and are memoized, so -exp all simulates each (workload,
// strategy, prefetch) cell exactly once no matter how many tables and
// figures consume it. Results are bit-identical regardless of
// -parallel.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/experiments"
	"accentmig/internal/faults"
	"accentmig/internal/obs"
	"accentmig/internal/workload"
	"accentmig/internal/xrand"
)

var experimentOrder = []string{
	"table4-1", "table4-2", "table4-3", "table4-4", "table4-5",
	"figure4-1", "figure4-2", "figure4-3", "figure4-4", "figure4-5",
	"summary", "ablations", "precopy", "breakeven", "bystander", "residual", "hops",
	"resilience",
}

// extraExperiments run only when named explicitly. The pipeline sweep
// flips the transport out of its paper-faithful stop-and-wait default,
// the dedup sweep turns on the content-addressed page store, the
// bottleneck sweep re-runs every cell traced, and the chaos campaign
// runs hundreds of randomized fault trials, and the shard-stress
// scenario prints host-measured throughput, so all stay out of
// -exp all to keep that output byte-identical across releases.
var extraExperiments = []string{"pipeline", "dedup", "bottleneck", "chaos", "shardstress"}

var tunables struct {
	physFrames int
	bandwidth  int
	dropProb   float64
	csv        bool

	faultsPath string
	crashAt    string
	maxRetries int

	window      int
	outstanding int

	dedup     bool
	compress  bool
	resume    bool
	integrity bool

	chaosTrials int
	shards      int
	seed        uint64

	sink interface {
		obs.Sink
		Close() error
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list) or 'all'")
	kindsFlag := flag.String("kinds", "", "comma-separated workload filter (default: all seven)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.IntVar(&tunables.physFrames, "physframes", 0, "physical memory frames per machine (0 = default 600)")
	flag.IntVar(&tunables.bandwidth, "bandwidth", 0, "link rate in bytes/sec (0 = default 375000)")
	flag.Float64Var(&tunables.dropProb, "droprate", 0, "frame loss probability on the link (shorthand for a uniform fault plan)")
	flag.StringVar(&tunables.faultsPath, "faults", "", "JSON fault plan file injected into every trial (see docs/RESILIENCE.md)")
	flag.StringVar(&tunables.crashAt, "crash-at", "", "crash the source machine's backer at this migration phase (excise, xfer.core, xfer.rimas, remote)")
	flag.IntVar(&tunables.maxRetries, "max-retries", -1, "migration retry budget with strategy degradation (-1 = experiment default)")
	flag.IntVar(&tunables.window, "window", 0, "transport send window in fragments (0/1 = paper-faithful stop-and-wait)")
	flag.IntVar(&tunables.outstanding, "outstanding", 0, "outstanding IOU page-run fetches per pager (0/1 = serial demand faults)")
	flag.BoolVar(&tunables.dedup, "dedup", false, "enable the content-addressed page store (manifest elision + fault hints)")
	flag.BoolVar(&tunables.compress, "compress", false, "enable the modeled wire compressor (implies -dedup)")
	flag.BoolVar(&tunables.resume, "resume", false, "enable the delivery ledger: retries resume from pages an aborted attempt already delivered")
	flag.BoolVar(&tunables.integrity, "integrity", false, "enable per-page checksums with targeted re-fetch of corrupt installs")
	flag.IntVar(&tunables.chaosTrials, "chaos-trials", 200, "randomized fault trials for -exp chaos")
	flag.IntVar(&tunables.shards, "shards", 1, "event-lane workers for the sharded kernel in -exp shardstress (1 = sequential kernel, the default path)")
	flag.BoolVar(&tunables.csv, "csv", false, "emit figure data as CSV instead of text")
	trace := flag.String("trace", "", "write a flight-recorder trace of every simulation to this file")
	traceFormat := flag.String("trace-format", "jsonl", "trace file format: jsonl or chrome (Perfetto-loadable)")
	seed := flag.Uint64("seed", 0, "base seed perturbing all random streams (0 = calibrated defaults)")
	parallel := flag.Int("parallel", 0, "trial worker-pool width (0 = GOMAXPROCS; 1 = sequential)")
	profile := flag.Bool("profile", false, "profile one traced migration per workload x strategy (critical path, blame, downtime) instead of running -exp")
	memoCache := flag.Bool("memo-cache", false, "persist trial results in a disk cache (default .migcache/) reused across runs")
	memoCacheDir := flag.String("memo-cache-dir", "", "disk cache directory (implies -memo-cache)")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile of the simulator to this file")
	memProfile := flag.String("memprofile", "", "write a host heap profile of the simulator to this file at exit")
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fatal(err)
		}
	}()

	experiments.SetWorkers(*parallel)
	if *memoCache || *memoCacheDir != "" {
		d, err := experiments.OpenDiskCache(*memoCacheDir, 0)
		if err != nil {
			fatal(err)
		}
		experiments.Default.SetDisk(d)
	}

	if *list {
		for _, id := range experimentOrder {
			fmt.Println(id)
		}
		for _, id := range extraExperiments {
			fmt.Println(id)
		}
		return
	}

	xrand.SetBaseSeed(*seed)
	tunables.seed = *seed

	kinds, err := parseKinds(*kindsFlag)
	if err != nil {
		fatal(err)
	}

	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		switch *traceFormat {
		case "jsonl":
			tunables.sink = obs.NewJSONLSink(f)
		case "chrome":
			tunables.sink = obs.NewChromeSink(f)
		default:
			fatal(fmt.Errorf("unknown -trace-format %q (want jsonl or chrome)", *traceFormat))
		}
	}

	if *profile {
		if err := runProfile(kinds); err != nil {
			fatal(err)
		}
		return
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experimentOrder
	}
	for _, id := range ids {
		if err := run(id, kinds); err != nil {
			fatal(err)
		}
	}
	if tunables.sink != nil {
		if err := tunables.sink.Close(); err != nil {
			fatal(fmt.Errorf("writing trace: %w", err))
		}
	}
}

// startProfiles begins a host CPU profile into cpuPath, if set, and
// returns the function that ends it and then, if memPath is set, writes
// a heap profile there after a GC. Both profile the simulator process,
// not the simulated system, and leave stdout untouched.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "migsim:", err)
	os.Exit(1)
}

func parseKinds(s string) ([]workload.Kind, error) {
	if s == "" {
		return workload.Kinds(), nil
	}
	byName := map[string]workload.Kind{}
	for _, k := range workload.Kinds() {
		byName[strings.ToLower(k.String())] = k
	}
	var out []workload.Kind
	for _, name := range strings.Split(s, ",") {
		k, ok := byName[strings.ToLower(strings.TrimSpace(name))]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, k)
	}
	return out, nil
}

// faultPlan compiles the fault-related flags into one plan: an
// explicit -faults file, with -droprate and -crash-at layered on top.
// Nil means no faults were requested.
func faultPlan() (*faults.Plan, error) {
	var plan *faults.Plan
	if tunables.faultsPath != "" {
		p, err := faults.Load(tunables.faultsPath)
		if err != nil {
			return nil, err
		}
		plan = p
	}
	if tunables.dropProb > 0 {
		if plan == nil {
			plan = faults.FromDropRate(tunables.dropProb, 0)
		} else if plan.DropProb == 0 {
			plan.DropProb = tunables.dropProb
		}
	}
	if tunables.crashAt != "" {
		if plan == nil {
			plan = &faults.Plan{}
		}
		plan.Crashes = append(plan.Crashes, faults.Crash{
			Machine: "src", AtPhase: tunables.crashAt, Policy: faults.CrashFail,
		})
	}
	if plan != nil {
		if err := plan.Validate(); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// baseConfig compiles the tunable flags into the experiment config
// shared by every mode.
func baseConfig() (experiments.Config, error) {
	cfg := experiments.Config{}
	cfg.Machine.PhysFrames = tunables.physFrames
	cfg.Link.BytesPerSecond = tunables.bandwidth
	if tunables.window > 1 {
		cfg.Machine.Net.Window = tunables.window
	}
	if tunables.outstanding > 1 {
		cfg.Machine.Pager.Outstanding = tunables.outstanding
	}
	if tunables.dedup || tunables.compress {
		cfg.Machine.Dedup.Enabled = true
		cfg.Machine.Dedup.Compress = tunables.compress
	}
	cfg.Machine.Dedup.Resume = tunables.resume
	cfg.Machine.Dedup.Integrity = tunables.integrity
	plan, err := faultPlan()
	if err != nil {
		return cfg, err
	}
	cfg.Faults = plan
	if tunables.maxRetries >= 0 {
		cfg.Recovery = &experiments.ResilienceOptions{
			MaxRetries: tunables.maxRetries,
			Degrade:    true,
			AckTimeout: 15 * time.Minute,
		}
	}
	return cfg, nil
}

// runProfile is the -profile mode: one flight-recorded migration per
// workload × strategy, rebuilt by the causal profiler into critical
// path, blame partition, and downtime.
func runProfile(kinds []workload.Kind) error {
	cfg, err := baseConfig()
	if err != nil {
		return err
	}
	rows, err := experiments.Bottleneck(cfg, kinds)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("=== %s under %s ===\n%s\n", r.Kind, r.Strategy, r.Profile.Format())
	}
	return nil
}

func run(id string, kinds []workload.Kind) error {
	cfg, err := baseConfig()
	if err != nil {
		return err
	}
	if tunables.sink != nil {
		// Namespace every trial's machines by experiment, so one trace
		// file holds the whole run with distinguishable process groups.
		cfg.Sink = obs.WithPrefix(tunables.sink, id+"/")
	}
	switch id {
	case "table4-1":
		rows, err := experiments.Table41(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTable41(rows))
	case "table4-2":
		rows, err := experiments.Table42(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTable42(rows))
	case "table4-3":
		rows, err := experiments.Table43(cfg, kinds)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTable43(rows))
	case "table4-4":
		rows, err := experiments.Table44(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTable44(rows))
	case "table4-5":
		rows, err := experiments.Table45(cfg, kinds)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTable45(rows))
	case "figure4-1", "figure4-2", "figure4-3", "figure4-4":
		g, err := experiments.RunGrid(cfg, kinds)
		if err != nil {
			return err
		}
		cellsFor := map[string]func(*experiments.Grid, []workload.Kind) map[workload.Kind][]experiments.FigureCell{
			"figure4-1": experiments.Figure41,
			"figure4-2": experiments.Figure42,
			"figure4-3": experiments.Figure43,
			"figure4-4": experiments.Figure44,
		}
		titles := map[string][2]string{
			"figure4-1": {"Figure 4-1: Remote Execution Times", "s"},
			"figure4-2": {"Figure 4-2: Overall Migration Speedup vs pure-copy", "%"},
			"figure4-3": {"Figure 4-3: Bytes Transferred", "B"},
			"figure4-4": {"Figure 4-4: Message Handling Costs", "s"},
		}
		cells := cellsFor[id](g, kinds)
		if tunables.csv {
			fmt.Print(experiments.FormatFigureCSV(cells, kinds))
		} else {
			tt := titles[id]
			fmt.Println(experiments.FormatFigure(tt[0], tt[1], cells, kinds))
		}
	case "figure4-5":
		panels, err := experiments.Figure45(cfg)
		if err != nil {
			return err
		}
		if tunables.csv {
			fmt.Print(experiments.FormatFigure45CSV(panels))
		} else {
			fmt.Println(experiments.FormatFigure45(panels))
		}
	case "summary":
		g, err := experiments.RunGrid(cfg, kinds)
		if err != nil {
			return err
		}
		s, err := experiments.Summarize(cfg, g, kinds)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatSummary(s))
	case "ablations":
		if err := runAblations(); err != nil {
			return err
		}
	case "precopy":
		rows, err := experiments.PreCopyComparison(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatPreCopy(rows))
	case "breakeven":
		rows, err := experiments.BreakevenSweep(cfg, []int{5, 10, 15, 20, 25, 30, 40, 50, 60})
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatBreakeven(rows))
	case "bystander":
		rows, err := experiments.BystanderImpact(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatBystander(rows))
	case "residual":
		series, err := experiments.ResidualSeries(cfg, workload.LispDel, 0, 5*time.Second)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatResidual(workload.LispDel, series))
	case "hops":
		rows, err := experiments.HopPenalty(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatHopPenalty(rows))
	case "resilience":
		t, err := experiments.Resilience(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatResilience(t))
	case "pipeline":
		t, err := experiments.Pipeline(cfg, kinds)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatPipeline(t))
	case "dedup":
		t, err := experiments.Dedup(cfg, kinds)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatDedup(t))
	case "bottleneck":
		rows, err := experiments.Bottleneck(cfg, kinds)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatBottleneck(rows))
	case "chaos":
		rep, err := experiments.Chaos(cfg, tunables.chaosTrials, tunables.seed+1)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatChaos(rep))
		if len(rep.Violations) > 0 {
			return fmt.Errorf("chaos campaign found %d invariant violations", len(rep.Violations))
		}
	case "shardstress":
		out, err := experiments.ShardStress(experiments.Default, tunables.shards)
		if err != nil {
			return err
		}
		fmt.Println(out)
	default:
		return fmt.Errorf("unknown experiment %q (try -list)", id)
	}
	return nil
}

func runAblations() error {
	pf, err := experiments.PrefetchAblation(core.PrefetchValues())
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatAblation("Ablation: prefetch (synthetic sequential)", pf))
	ps, err := experiments.PageSizeAblation([]int{256, 512, 1024, 2048})
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatAblation("Ablation: page size", ps))
	bw, err := experiments.BandwidthAblation([]int{375_000, 3_750_000, 37_500_000})
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatAblation("Ablation: network bandwidth (IOU vs Copy)", bw))
	ca, err := experiments.IOUCacheAblation()
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatAblation("Ablation: NetMsgServer IOU cache", ca))
	th, err := experiments.CopyThresholdAblation([]int{512, 4096, 65536, 1 << 20})
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatAblation("Ablation: IPC copy/map threshold", th))
	return nil
}
