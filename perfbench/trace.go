package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/experiments"
	"accentmig/internal/workload"
)

// section is one `-exp all` section: the public harness it calls, with
// the arguments `migsim -exp all` passes.
type section struct {
	id  string
	run func(cfg experiments.Config, st *sectionState) error
}

// sectionState carries results later metrics read.
type sectionState struct {
	grid       *experiments.Grid
	resilience *experiments.ResilienceTable
}

func ignore[T any](_ T, err error) error { return err }

var sections = []section{
	{"table4-1", func(cfg experiments.Config, _ *sectionState) error { return ignore(experiments.Table41(cfg)) }},
	{"table4-2", func(cfg experiments.Config, _ *sectionState) error { return ignore(experiments.Table42(cfg)) }},
	{"table4-3", func(cfg experiments.Config, _ *sectionState) error {
		return ignore(experiments.Table43(cfg, workload.Kinds()))
	}},
	{"table4-4", func(cfg experiments.Config, _ *sectionState) error { return ignore(experiments.Table44(cfg)) }},
	{"table4-5", func(cfg experiments.Config, _ *sectionState) error {
		return ignore(experiments.Table45(cfg, workload.Kinds()))
	}},
	{"figures4-1to4-4", func(cfg experiments.Config, st *sectionState) error {
		g, err := experiments.RunGrid(cfg, workload.Kinds())
		st.grid = g
		return err
	}},
	{"figure4-5", func(cfg experiments.Config, _ *sectionState) error { return ignore(experiments.Figure45(cfg)) }},
	{"summary", func(cfg experiments.Config, st *sectionState) error {
		g, err := experiments.RunGrid(cfg, workload.Kinds())
		if err != nil {
			return err
		}
		st.grid = g
		return ignore(experiments.Summarize(cfg, g, workload.Kinds()))
	}},
	{"ablations", func(experiments.Config, *sectionState) error {
		if _, err := experiments.PrefetchAblation(core.PrefetchValues()); err != nil {
			return err
		}
		if _, err := experiments.PageSizeAblation([]int{256, 512, 1024, 2048}); err != nil {
			return err
		}
		if _, err := experiments.BandwidthAblation([]int{375_000, 3_750_000, 37_500_000}); err != nil {
			return err
		}
		if _, err := experiments.IOUCacheAblation(); err != nil {
			return err
		}
		return ignore(experiments.CopyThresholdAblation([]int{512, 4096, 65536, 1 << 20}))
	}},
	{"precopy", func(cfg experiments.Config, _ *sectionState) error { return ignore(experiments.PreCopyComparison(cfg)) }},
	{"breakeven", func(cfg experiments.Config, _ *sectionState) error {
		return ignore(experiments.BreakevenSweep(cfg, []int{5, 10, 15, 20, 25, 30, 40, 50, 60}))
	}},
	{"bystander", func(cfg experiments.Config, _ *sectionState) error { return ignore(experiments.BystanderImpact(cfg)) }},
	{"residual", func(cfg experiments.Config, _ *sectionState) error {
		return ignore(experiments.ResidualSeries(cfg, workload.LispDel, 0, 5*time.Second))
	}},
	{"hops", func(cfg experiments.Config, _ *sectionState) error { return ignore(experiments.HopPenalty(cfg)) }},
	{"resilience", func(cfg experiments.Config, st *sectionState) error {
		t, err := experiments.Resilience(cfg)
		st.resilience = t
		return err
	}},
}

// memDelta records the Go runtime's allocation and GC figures across fn.
type memDelta struct{ before, after runtime.MemStats }

func measureMem(fn func() error) (memDelta, time.Duration, error) {
	var d memDelta
	runtime.GC()
	runtime.ReadMemStats(&d.before)
	start := time.Now()
	err := fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&d.after)
	return d, wall, err
}

func (d memDelta) mallocs() uint64 { return d.after.Mallocs - d.before.Mallocs }
func (d memDelta) allocMB() float64 {
	return float64(d.after.TotalAlloc-d.before.TotalAlloc) / (1 << 20)
}

func (d memDelta) put(m map[string]float64) {
	m["runtime.alloc_mb"] = d.allocMB()
	m["runtime.mallocs"] = float64(d.mallocs())
	m["runtime.num_gc"] = float64(d.after.NumGC - d.before.NumGC)
	m["runtime.gc_cpu_pct"] = 100 * d.after.GCCPUFraction
}

// quantile reads a nearest-rank quantile of host spans, in ms.
func quantile(spans []time.Duration, q float64) float64 {
	s := append([]time.Duration(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return ms(s[int(q*float64(len(s)-1))])
}

// runTrace is the traced pass of one workload: the workload's own work
// with spans around the program's public calls. run.py times this
// process against the untraced runs; the layer probes run apart.
func runTrace(o options, rep *report) error {
	m := map[string]float64{}
	rep.Metrics = m
	log := newSpanLog()
	var pass func() error
	cfg := experiments.Config{}
	switch o.workload {
	case "paper_cold", "paper_warm":
		if o.workload == "paper_warm" {
			d, err := experiments.OpenDiskCache(o.cacheDir, 0)
			if err != nil {
				return err
			}
			experiments.Default.SetDisk(d)
		}
		pass = func() error {
			sm, err := paperPass(cfg, o.parallel, m, log)
			rep.Sim = &sm
			return err
		}
	case "transport_store":
		pass = func() error {
			sm, err := transportPass(cfg, m, log)
			rep.Sim = &sm
			return err
		}
	case "cluster64":
		pass = func() error { return clusterPass(o, rep, m, log) }
	default:
		return fmt.Errorf("trace: unknown workload %q", o.workload)
	}
	mem, wall, err := measureMem(pass)
	if err != nil {
		return err
	}
	rep.PassWall = wall.Seconds()
	rep.Spans = log.spans
	mem.put(m)
	switch o.workload {
	case "cluster64":
		m["sim.events"] = float64(rep.Events)
		m["sim.allocs_per_event"] = float64(mem.mallocs()) / float64(rep.Events)
	case "paper_warm":
		// Every trial is served from the disk cache: nothing simulates.
		m["sim.events"], m["sim.ns_per_event"], m["sim.allocs_per_event"] = 0, 0, 0
	}
	return nil
}

// paperPass is `-exp all` through the public harnesses: the 77 grid
// cells first, each in a span around Engine.Trial on the benchmark's
// own worker pool, then every section in a span around its harness.
func paperPass(cfg experiments.Config, workers int, m map[string]float64, log *spanLog) (simMetrics, error) {
	e := experiments.Default
	keys := experiments.GridKeys(workload.Kinds())
	trials := make([]time.Duration, len(keys))
	grid, err := log.record("grid", 0, func(gid int) error {
		return each(len(keys), workers, func(i int) error {
			k := keys[i]
			sp, err := log.record(fmt.Sprintf("Engine.Trial %v/%v/%d", k.Kind, k.Strategy, k.Prefetch), gid, func(int) error {
				return ignore(e.Trial(cfg, k.Kind, k.Strategy, k.Prefetch))
			})
			trials[i] = sp.dur()
			return err
		})
	})
	if err != nil {
		return simMetrics{}, err
	}
	var busy time.Duration
	for _, d := range trials {
		busy += d
	}
	m["engine.trial_ms_p50"] = quantile(trials, 0.50)
	m["engine.trial_ms_p85"] = quantile(trials, 0.85)
	m["engine.busy_pct"] = 100 * busy.Seconds() / (grid.dur().Seconds() * float64(workers))

	st := &sectionState{}
	for _, sec := range sections {
		sp, err := log.record(sec.id, 0, func(int) error { return sec.run(cfg, st) })
		if err != nil {
			return simMetrics{}, fmt.Errorf("section %s: %w", sec.id, err)
		}
		m["exp."+sec.id+"_ms"] = ms(sp.dur())
	}
	retries := 0
	for _, rows := range [][]*experiments.ResilienceRow{st.resilience.Sweep, st.resilience.Scenarios} {
		for _, r := range rows {
			for _, out := range r.Outcomes {
				if out.Attempts > 1 {
					retries += out.Attempts - 1
				}
			}
		}
	}
	m["core.retries"] = float64(retries)
	return paperSim(st.grid), nil
}

func transportPass(cfg experiments.Config, m map[string]float64, log *spanLog) (simMetrics, error) {
	var pt *experiments.PipelineTable
	var dt *experiments.DedupTable
	sp, err := log.record("Pipeline", 0, func(int) (err error) {
		pt, err = experiments.Pipeline(cfg, workload.Kinds())
		return err
	})
	if err != nil {
		return simMetrics{}, err
	}
	m["exp.pipeline_ms"] = ms(sp.dur())
	sp, err = log.record("Dedup", 0, func(int) (err error) {
		dt, err = experiments.Dedup(cfg, workload.Kinds())
		return err
	})
	if err != nil {
		return simMetrics{}, err
	}
	m["exp.dedup_ms"] = ms(sp.dur())
	return transportSim(pt, dt), nil
}

// clusterPass is one cluster64 pass: the sequential kernel, then the
// same input on lanes, as each timed run does.
func clusterPass(o options, rep *report, m map[string]float64, log *spanLog) error {
	var results [2]*experiments.ShardStressResult
	var wall time.Duration
	var events uint64
	for i, shards := range []int{1, o.shards} {
		var perf *experiments.ShardStressPerf
		_, err := log.record(fmt.Sprintf("RunShardStress shards=%d", shards), 0, func(int) (err error) {
			results[i], perf, err = experiments.RunShardStress(clusterOptions(o, shards))
			return err
		})
		if err != nil {
			return err
		}
		wall += perf.Wall
		events += perf.Events
	}
	rep.check(shardsMatch(results[0], results[1]), "cluster: %d-lane result differs from the sequential kernel (seed %d)", o.shards, o.seed)
	sm := clusterSim(results[0])
	rep.Sim = &sm
	rep.Digest = digest(results[0])
	rep.Events = events
	m["sim.ns_per_event"] = float64(wall.Nanoseconds()) / float64(events)
	return nil
}

// workloadEvents fills the kernel work of a paper or transport run:
// the events it executes and their host cost. Those trials run inside
// the engine, so the probe runner re-drives them, one at a time, on
// testbeds it can read.
func workloadEvents(o options, cfg experiments.Config, rep *report, m map[string]float64) error {
	if o.workload != "paper_cold" && o.workload != "transport_store" {
		return nil
	}
	var pt *experiments.PipelineTable
	if o.workload == "transport_store" {
		var err error
		if pt, err = experiments.Pipeline(cfg, workload.Kinds()); err != nil {
			return err
		}
	}
	var ev uint64
	mem, wall, err := measureMem(func() error {
		if pt != nil {
			var err error
			ev, err = pipelineProbe(cfg, pt, 1, rep)
			return err
		}
		gr, err := gridProbe(cfg, 1)
		if err == nil {
			ev = gr.events
		}
		return err
	})
	if err != nil {
		return err
	}
	m["sim.events"] = float64(ev)
	m["sim.ns_per_event"] = float64(wall.Nanoseconds()) / float64(ev)
	m["sim.allocs_per_event"] = float64(mem.mallocs()) / float64(ev)
	return nil
}

func dirMB(dir string) float64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return float64(n) / 1e6
}
