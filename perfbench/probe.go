package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/experiments"
	"accentmig/internal/obs"
	"accentmig/internal/sim"
	"accentmig/internal/trace"
	"accentmig/internal/workload"
)

// probe is one migration the benchmark drives itself on a fresh
// testbed, so it can read the kernel, transport, pager and report of
// the trial directly. This runner restates the shape of
// experiments.RunTrial; the simulated figures it reads must match the
// program's own trials (checked by gridProbe).
type probe struct {
	tb      *experiments.Testbed
	rep     *core.Report
	migWall time.Duration // host time inside SrcMgr.MigrateTo
	doneAt  time.Duration // virtual time the migrated program finished
}

// endToEnd is RIMAS transfer plus remote execution, the definition
// experiments.TrialResult.EndToEnd uses.
func (p *probe) endToEnd() time.Duration {
	return p.rep.RIMASTransfer + p.doneAt - p.rep.InsertDoneAt
}

// runProbe starts the process setup creates on the testbed's source,
// migrates it with opts, and, unless the process is held at the
// destination, runs it there to completion.
func runProbe(cfg experiments.Config, opts core.Options, setup func(*experiments.Testbed) (string, error)) (*probe, error) {
	tb := experiments.NewTestbed(cfg)
	name, err := setup(tb)
	if err != nil {
		return nil, err
	}
	pr := &probe{tb: tb}
	var migErr error
	tb.K.Go("probe-runner", func(p *sim.Proc) {
		start := time.Now()
		rep, err := tb.SrcMgr.MigrateTo(p, name, tb.DstMgr.Port.ID, opts)
		pr.migWall = time.Since(start)
		if err != nil {
			migErr = err
			return
		}
		pr.rep = rep
		if opts.HoldAtDest {
			return
		}
		npr, ok := tb.Dst.Process(name)
		if !ok {
			migErr = fmt.Errorf("probe: %s not on destination after migration", name)
			return
		}
		if err := npr.WaitDone(p); err != nil {
			migErr = fmt.Errorf("probe: %s remote execution: %w", name, err)
			return
		}
		pr.doneAt = p.Now()
	})
	tb.K.Run()
	if migErr != nil {
		return nil, migErr
	}
	if pr.rep == nil {
		return nil, fmt.Errorf("probe: migration of %s never completed", name)
	}
	return pr, nil
}

// kindSetup builds paper representative k on the source machine.
func kindSetup(k workload.Kind) func(*experiments.Testbed) (string, error) {
	return func(tb *experiments.Testbed) (string, error) {
		built, err := workload.Build(tb.Src, k)
		if err != nil {
			return "", err
		}
		tb.Src.Start(built.Proc)
		return k.String(), nil
	}
}

// copyProbePages is the 1 MB pure-copy transfer's size in 512-byte
// pages.
const copyProbePages = 2048

// copySetup builds a 1 MB process of materialized data pages that stops
// at its first instruction, a migration point.
func copySetup(tb *experiments.Testbed) (string, error) {
	pr, err := tb.Src.NewProcess("job", 1)
	if err != nil {
		return "", err
	}
	reg, err := pr.AS.Validate(0, copyProbePages*512, "data")
	if err != nil {
		return "", err
	}
	buf := make([]byte, 512)
	for i := uint64(0); i < copyProbePages; i++ {
		reg.Seg.Materialize(i, buf)
	}
	pr.Program = &trace.Program{Ops: []trace.Op{trace.MigratePoint{}}}
	tb.Src.Start(pr)
	return "job", nil
}

// countSink is a flight-recorder sink that keeps only the counts and
// durations the per-layer metrics need. Safe for concurrent trials.
type countSink struct {
	mu          sync.Mutex
	xmits       uint64
	linkBusy    time.Duration
	retransmits uint64
	queueWait   time.Duration
	cpuHold     time.Duration
}

func (c *countSink) Emit(ev obs.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev.Kind {
	case obs.LinkXmit:
		c.xmits++
		c.linkBusy += ev.Dur
	case obs.NetRetransmit:
		c.retransmits++
	case obs.QueueWait:
		c.queueWait += ev.Dur
	case obs.ResourceHold:
		if strings.HasSuffix(ev.Name, ".cpu") {
			c.cpuHold += ev.Dur
		}
	}
}
