package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/experiments"
	"accentmig/internal/faults"
	"accentmig/internal/ipc"
	"accentmig/internal/sim"
	"accentmig/internal/vm"
	"accentmig/internal/vmbench"
	"accentmig/internal/wire"
	"accentmig/internal/workload"
)

// runLayers measures every layer the same way on every workload, so
// each traced run reports the full per-layer set. The workload's own
// traced pass overrides the section timings it also measures.
func runLayers(o options, rep *report) error {
	m := map[string]float64{}
	rep.Metrics = m
	cfg := experiments.Config{}
	if err := workloadEvents(o, cfg, rep, m); err != nil {
		return err
	}
	if _, err := transportPass(cfg, m, newSpanLog()); err != nil {
		return err
	}
	experiments.Default.Reset()
	if _, err := paperPass(cfg, o.parallel, m, newSpanLog()); err != nil {
		return err
	}
	steps := []func() error{
		func() error { return engineProbe(cfg, m) },
		func() error { return memoProbe(o, cfg, rep, m) },
		func() error { simDispatchProbe(m); return nil },
		func() error { vmProbe(m); return nil },
		func() error { return buildProbe(cfg, m) },
		func() error { return coreProbe(cfg, m) },
		func() error { return netProbe(o, cfg, m) },
		func() error { return wireProbe(m) },
		func() error { return clusterProbe(o, rep, m) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// repeat runs fn n times and returns the median of what it reports.
func repeat(n int, fn func() (float64, error)) (float64, error) {
	xs := make([]float64, n)
	for i := range xs {
		x, err := fn()
		if err != nil {
			return 0, err
		}
		xs[i] = x
	}
	return median(xs), nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// engineProbe reads the engine on the grid the paper pass left cached:
// a full memoized sweep's dispatch cost per cell, one memo hit, the
// model's accuracy against the paper, and how many trial requests the
// shared memo saved across the `-exp all` sections.
func engineProbe(cfg experiments.Config, m map[string]float64) error {
	e := experiments.Default
	shared := e.CachedCells()
	keys := experiments.GridKeys(workload.Kinds())
	var err error
	m["engine.dispatch_us"], err = repeat(5, func() (float64, error) {
		start := time.Now()
		_, err := e.RunGrid(cfg, workload.Kinds())
		return us(time.Since(start)) / float64(len(keys)), err
	})
	if err != nil {
		return err
	}
	const hits = 1000
	m["engine.memo_hit_us"], err = repeat(5, func() (float64, error) {
		k := keys[0]
		start := time.Now()
		for i := 0; i < hits; i++ {
			if _, err := e.Trial(cfg, k.Kind, k.Strategy, k.Prefetch); err != nil {
				return 0, err
			}
		}
		return us(time.Since(start)) / hits, nil
	})
	if err != nil {
		return err
	}

	g, err := e.RunGrid(cfg, workload.Kinds())
	if err != nil {
		return err
	}
	s, err := experiments.Summarize(cfg, g, workload.Kinds())
	if err != nil {
		return err
	}
	m["accuracy.bytes_saved_pct"] = s.AvgByteSavingsPct
	m["accuracy.msgtime_saved_pct"] = s.AvgMsgTimeSavingsPct
	m["accuracy.fault_ratio"] = s.FaultRatio

	// Each section alone on an empty memo asks for this many trials;
	// the shared run simulated only the union.
	alone := 0
	st := &sectionState{}
	for _, sec := range sections {
		e.Reset()
		if err := sec.run(cfg, st); err != nil {
			return err
		}
		alone += e.CachedCells()
	}
	m["engine.memo_hit_ratio"] = 1 - float64(shared)/float64(alone)
	return nil
}

// memoProbe times the disk memo cache on the grid: one sequential cold
// pass with the cache and one without, cell by cell, gives the store
// cost; a warm pass on a fresh engine gives the load cost.
func memoProbe(o options, cfg experiments.Config, rep *report, m map[string]float64) error {
	dir := filepath.Join(o.scratch, "memoprobe")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	cold, err := experiments.OpenDiskCache(dir, 0)
	if err != nil {
		return err
	}
	plain, cached := experiments.NewEngine(1), experiments.NewEngine(1)
	cached.SetDisk(cold)
	keys := experiments.GridKeys(workload.Kinds())
	var store, load []float64
	for _, k := range keys {
		t0 := time.Now()
		if _, err := plain.Trial(cfg, k.Kind, k.Strategy, k.Prefetch); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := cached.Trial(cfg, k.Kind, k.Strategy, k.Prefetch); err != nil {
			return err
		}
		store = append(store, us(time.Since(t1)-t1.Sub(t0)))
	}
	warm, err := experiments.OpenDiskCache(dir, 0)
	if err != nil {
		return err
	}
	w := experiments.NewEngine(1)
	w.SetDisk(warm)
	for _, k := range keys {
		start := time.Now()
		if _, err := w.Trial(cfg, k.Kind, k.Strategy, k.Prefetch); err != nil {
			return err
		}
		load = append(load, us(time.Since(start)))
	}
	st := warm.Stats()
	m["memocache.store_us"] = median(store)
	m["memocache.load_us"] = median(load)
	m["memocache.hits"] = float64(st.Hits)
	m["memocache.misses"] = float64(st.Misses)
	m["memocache.rejects"] = float64(st.Rejects)
	m["memocache.mb"] = dirMB(dir)
	rep.check(st.Misses == 0 && st.Rejects == 0 && st.Hits == uint64(len(keys)),
		"memo cache: warm grid had %d hits, %d misses, %d rejects", st.Hits, st.Misses, st.Rejects)
	return os.RemoveAll(dir)
}

// simDispatchProbe schedules and runs empty events on a fresh kernel.
func simDispatchProbe(m map[string]float64) {
	const n = 200_000
	noop := func() {}
	var ns, allocs []float64
	for r := 0; r < 5; r++ {
		mem, wall, _ := measureMem(func() error {
			k := sim.New()
			for i := 0; i < n; i++ {
				k.Schedule(time.Duration(i%997)*time.Microsecond, noop)
			}
			k.Run()
			return nil
		})
		ns = append(ns, float64(wall.Nanoseconds())/n)
		allocs = append(allocs, float64(mem.mallocs())/n)
	}
	m["sim.dispatch_ns"] = median(ns)
	m["sim.dispatch_allocs"] = median(allocs)
}

// vmProbe runs the vm microbenchmark bodies the repository's own
// benchmarks use.
func vmProbe(m map[string]float64) {
	testing.Init()
	_ = flag.Set("test.benchtime", "200ms") // registered by testing.Init
	for _, b := range []struct {
		name  string
		fn    func(*testing.B)
		scale time.Duration
	}{
		{"vm.resident_touch_ns", vmbench.ResidentTouch, time.Nanosecond},
		{"vm.cow_break_ns", vmbench.COWBreak, time.Nanosecond},
		{"vm.amap_rebuild_us", vmbench.BuildAMapSparse, time.Microsecond},
		{"vm.page_hash_ns", vmbench.PageHash, time.Nanosecond},
		{"vm.content_hit_ns", vmbench.ContentIndexHit, time.Nanosecond},
	} {
		r := testing.Benchmark(b.fn)
		m[b.name] = float64(r.T) / float64(r.N) / float64(b.scale)
		m[strings.TrimSuffix(strings.TrimSuffix(b.name, "_ns"), "_us")+"_allocs"] = float64(r.AllocsPerOp())
	}
}

// buildProbe times workload.Build for every representative.
func buildProbe(cfg experiments.Config, m map[string]float64) error {
	var wall time.Duration
	var alloc float64
	for _, k := range workload.Kinds() {
		tb := experiments.NewTestbed(cfg)
		mem, d, err := measureMem(func() error { return ignore(kindSetup(k)(tb)) })
		if err != nil {
			return err
		}
		wall += d
		alloc += mem.allocMB()
	}
	m["workload.build_ms"] = ms(wall)
	m["workload.build_alloc_mb"] = alloc
	return nil
}

// coreProbe drives every representative under each strategy with a
// counting sink attached, then again with the content store on.
func coreProbe(cfg experiments.Config, m map[string]float64) error {
	cs := &countSink{}
	c := cfg
	c.Sink = cs
	var migWall, excise, xferCore, rimas, insert time.Duration
	var imag, disk, prefetched, prefetchHits, streamWaits float64
	for _, k := range workload.Kinds() {
		for _, o := range []core.Options{
			{Strategy: core.PureCopy},
			{Strategy: core.PureIOU, Prefetch: 1},
			{Strategy: core.ResidentSet, Prefetch: 1},
		} {
			o.WaitMigratePoint = true
			p, err := runProbe(c, o, kindSetup(k))
			if err != nil {
				return err
			}
			migWall += p.migWall
			excise += p.rep.Excise.Overall
			xferCore += p.rep.CoreTransfer
			rimas += p.rep.RIMASTransfer
			insert += p.rep.Insert.Overall
			ps := p.tb.Dst.Pager.Stats()
			imag += float64(ps.ImagFaults)
			disk += float64(ps.DiskFaults)
			prefetched += float64(ps.PrefetchedPages)
			prefetchHits += float64(ps.PrefetchHits)
			streamWaits += float64(ps.StreamWaits)
		}
	}
	m["core.migrate_host_ms"] = ms(migWall)
	m["core.excise_sim_ms"] = ms(excise)
	m["core.xfer_core_sim_ms"] = ms(xferCore)
	m["core.rimas_sim_ms"] = ms(rimas)
	m["core.insert_sim_ms"] = ms(insert)
	m["pager.imag_faults"] = imag
	m["pager.disk_faults"] = disk
	m["pager.prefetch_hit_ratio"] = prefetchHits / prefetched
	m["pager.stream_waits"] = streamWaits
	m["netmsg.frames"] = float64(cs.xmits)
	m["sim.queue_wait_s"] = cs.queueWait.Seconds()
	m["sim.cpu_hold_s"] = cs.cpuHold.Seconds()
	m["sim.link_busy_s"] = cs.linkBusy.Seconds()

	d := cfg
	d.Machine.Dedup.Enabled = true
	var elided, offered, local, holder float64
	for _, k := range workload.Kinds() {
		for _, s := range []core.Strategy{core.PureCopy, core.PureIOU} {
			p, err := runProbe(d, core.Options{Strategy: s, WaitMigratePoint: true}, kindSetup(k))
			if err != nil {
				return err
			}
			if s == core.PureCopy {
				elided += float64(p.rep.Insert.ElidedPages)
				offered += float64(p.rep.RealPages)
			}
			ps := p.tb.Dst.Pager.Stats()
			local += float64(ps.LocalServes)
			holder += float64(ps.HolderServes)
		}
	}
	m["core.elided_ratio"] = elided / offered
	m["pager.local_serves"] = local
	m["pager.holder_serves"] = holder
	return nil
}

// netProbe moves the 1 MB pure-copy process at window 1 and 16, then
// at window 1 over a lossy link to exercise retransmission.
func netProbe(o options, cfg experiments.Config, m map[string]float64) error {
	copyOpts := core.Options{Strategy: core.PureCopy, HoldAtDest: true}
	const mib = copyProbePages * 512.0 / (1 << 20)
	for _, w := range []int{1, 16} {
		c := cfg
		if w > 1 {
			c.Machine.Net.Window = w
		}
		var allocs []float64
		var rounds uint64
		host, err := repeat(5, func() (float64, error) {
			var p *probe
			mem, wall, err := measureMem(func() (err error) {
				p, err = runProbe(c, copyOpts, copySetup)
				return err
			})
			if err != nil {
				return 0, err
			}
			allocs = append(allocs, mem.allocMB()/mib)
			rounds = p.tb.Src.Net.Stats().WindowRounds
			return ms(wall), nil
		})
		if err != nil {
			return err
		}
		if w == 1 {
			m["netmsg.copy_1mb_ms_w1"] = host
			m["netmsg.alloc_mb_per_mb"] = median(allocs)
		} else {
			m["netmsg.copy_1mb_ms_w16"] = host
			m["netmsg.window_rounds"] = float64(rounds)
		}
	}

	cs := &countSink{}
	c := cfg
	c.Sink = cs
	c.Faults = faults.FromDropRate(0.02, o.seed+1)
	p, err := runProbe(c, copyOpts, copySetup)
	if err != nil {
		return err
	}
	m["netmsg.retransmits"] = float64(cs.retransmits)
	m["netmsg.retransmit_bytes"] = float64(p.tb.Src.Net.Stats().RetransmitBytes + p.tb.Dst.Net.Stats().RetransmitBytes)
	return nil
}

// wireProbe round-trips a 64-page data message through the codec.
func wireProbe(m map[string]float64) error {
	const pages, trips = 64, 500
	msg := &ipc.Message{Op: 1, Mem: []*ipc.MemAttachment{{
		Kind: ipc.AttachData, Size: pages * 512,
		Runs: []vm.PageRun{{Index: 0, Count: pages, Data: bytes.Repeat([]byte{0xA5}, pages*512)}},
	}}}
	var err error
	m["wire.transfer_ns_per_page"], err = repeat(5, func() (float64, error) {
		start := time.Now()
		for i := 0; i < trips; i++ {
			if _, err := wire.Transfer(msg); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / (pages * trips), nil
	})
	return err
}

// clusterProbe runs the 64-machine scenario on the sequential kernel
// and on lanes, and splits the lanes' gain into fewer events times
// real parallel efficiency.
func clusterProbe(o options, rep *report, m map[string]float64) error {
	seq, sp, err := experiments.RunShardStress(clusterOptions(o, 1))
	if err != nil {
		return err
	}
	lanes, lp, err := experiments.RunShardStress(clusterOptions(o, o.shards))
	if err != nil {
		return err
	}
	rep.check(shardsMatch(seq, lanes), "cluster: %d-lane result differs from the sequential kernel (seed %d)", o.shards, o.seed)
	m["sim.event_ratio"] = float64(lp.Events) / float64(sp.Events)
	m["sim.windows"] = float64(lp.Windows)
	m["sim.cross_events"] = float64(lp.CrossEvents)
	m["sim.barrier_stall_pct"] = lp.StallPct
	m["sim.parallel_eff"] = lp.EventsPerSec / float64(lp.Workers) / sp.EventsPerSec
	var max, sum time.Duration
	for _, d := range lp.LaneWall {
		sum += d
		if d > max {
			max = d
		}
	}
	m["sim.lane_imbalance"] = float64(max) * float64(len(lp.LaneWall)) / float64(sum)
	return nil
}
