package main

import (
	"sync"
	"sync/atomic"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/experiments"
	"accentmig/internal/workload"
)

// each runs fn(i) for i in [0, n) on w goroutines.
func each(n, w int, fn func(i int) error) error {
	if w < 1 {
		w = 1
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// cellOut is what the benchmark keeps of one probe-driven trial.
type cellOut struct {
	events   uint64
	bytes    uint64
	msgTime  time.Duration
	endToEnd time.Duration
	downtime time.Duration
}

func outOf(p *probe) cellOut {
	return cellOut{
		events:   p.tb.K.EventsRun(),
		bytes:    p.tb.Rec.BytesTotal(),
		msgTime:  p.tb.Rec.MessageTime(),
		endToEnd: p.endToEnd(),
		downtime: p.tb.Rec.Downtime(),
	}
}

// gridRun is the paper grid driven by the probe runner.
type gridRun struct {
	keys   []experiments.GridKey
	cells  []cellOut
	events uint64
}

func gridProbe(cfg experiments.Config, workers int) (*gridRun, error) {
	gr := &gridRun{keys: experiments.GridKeys(workload.Kinds())}
	gr.cells = make([]cellOut, len(gr.keys))
	err := each(len(gr.keys), workers, func(i int) error {
		key := gr.keys[i]
		p, err := runProbe(cfg, core.Options{Strategy: key.Strategy, Prefetch: key.Prefetch, WaitMigratePoint: true}, kindSetup(key.Kind))
		if err != nil {
			return err
		}
		gr.cells[i] = outOf(p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, c := range gr.cells {
		gr.events += c.events
	}
	return gr, nil
}

// agree checks the probe runner against the program's trials cell by
// cell: the simulation is the program's, so the figures must be equal.
func (gr *gridRun) agree(g *experiments.Grid, rep *report) {
	bad := 0
	for i, key := range gr.keys {
		tr, c := g.Cell(key.Kind, key.Strategy, key.Prefetch), gr.cells[i]
		if tr == nil || tr.BytesTotal != c.bytes || tr.MsgTime != c.msgTime || tr.EndToEnd != c.endToEnd || tr.Downtime != c.downtime {
			bad++
		}
	}
	rep.check(bad == 0, "probe runner disagrees with the engine on %d of %d grid cells", bad, len(gr.keys))
}

// pipelineProbe re-drives every pipeline sweep row with the probe
// runner, returns the kernel events those trials execute, and checks
// each row's simulated figures.
func pipelineProbe(cfg experiments.Config, pt *experiments.PipelineTable, workers int, rep *report) (uint64, error) {
	cells := make([]cellOut, len(pt.Rows))
	err := each(len(pt.Rows), workers, func(i int) error {
		r := pt.Rows[i]
		c := cfg
		if r.Window > 1 {
			c.Machine.Net.Window = r.Window
		}
		p, err := runProbe(c, core.Options{Strategy: r.Strategy, WaitMigratePoint: true}, kindSetup(r.Kind))
		if err != nil {
			return err
		}
		cells[i] = outOf(p)
		return nil
	})
	if err != nil {
		return 0, err
	}
	var events uint64
	bad := 0
	for i, r := range pt.Rows {
		events += cells[i].events
		if r.EndToEnd != cells[i].endToEnd || r.MsgTime != cells[i].msgTime || r.Down != cells[i].downtime {
			bad++
		}
	}
	rep.check(bad == 0, "probe runner disagrees with the pipeline sweep on %d of %d rows", bad, len(pt.Rows))
	return events, nil
}
