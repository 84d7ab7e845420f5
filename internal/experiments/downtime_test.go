package experiments

import (
	"testing"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/obs"
	"accentmig/internal/prof"
	"accentmig/internal/sim"
	"accentmig/internal/workload"
)

// TestProfilerDowntimeMatchesRecorder is the one-downtime-rule
// conformance test: for every way a migration can run — a single
// attempt under each paper strategy, a retry after a partition killed
// the first attempt, and iterative pre-copy — the profiler rebuilt from
// the flight-recorder stream must report exactly the recorder's freeze
// instant and downtime.
func TestProfilerDowntimeMatchesRecorder(t *testing.T) {
	kindBed := func(k workload.Kind) func(Config) (*Testbed, string, error) {
		return func(cfg Config) (*Testbed, string, error) {
			tb := NewTestbed(cfg)
			b, err := workload.Build(tb.Src, k)
			if err != nil {
				return tb, "", err
			}
			tb.Src.Start(b.Proc)
			return tb, k.String(), nil
		}
	}
	retry := resilienceDefaults(Config{})
	retry.Machine.Dedup.Resume = true
	retry.Faults = killFirstAttempt(t, retry)

	cases := []struct {
		name     string
		cfg      Config
		bed      func(Config) (*Testbed, string, error)
		opts     core.Options
		attempts int
		delay    time.Duration // driver start, letting a pre-copied writer run first
	}{
		{"PureCopy", Config{}, kindBed(workload.LispDel),
			core.Options{Strategy: core.PureCopy, WaitMigratePoint: true}, 1, 0},
		{"ResidentSet", Config{}, kindBed(workload.LispDel),
			core.Options{Strategy: core.ResidentSet, WaitMigratePoint: true}, 1, 0},
		{"PureIOU", Config{}, kindBed(workload.LispDel),
			core.Options{Strategy: core.PureIOU, WaitMigratePoint: true}, 1, 0},
		{"Retry", retry, kindBed(resilienceKind),
			core.Options{Strategy: core.PureCopy, WaitMigratePoint: true, MaxRetries: 3, AckTimeout: 15 * time.Minute}, 2, 0},
		{"PreCopied", Config{}, func(cfg Config) (*Testbed, string, error) {
			tb, err := preCopyTestbed(cfg, 128, 16, 2000)
			return tb, "writer", err
		}, core.Options{Strategy: core.PreCopied}, 1, time.Second},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sink := obs.NewMemorySink()
			cfg := c.cfg
			cfg.Sink = sink
			tb, name, err := c.bed(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer tb.K.Close()
			var rep *core.Report
			var migErr error
			tb.K.Go("driver", func(p *sim.Proc) {
				p.Sleep(c.delay)
				rep, migErr = tb.SrcMgr.MigrateTo(p, name, tb.DstMgr.Port.ID, c.opts)
			})
			tb.K.Run()
			if migErr != nil {
				t.Fatal(migErr)
			}
			if rep.Attempts != c.attempts {
				t.Fatalf("attempts = %d, want %d", rep.Attempts, c.attempts)
			}

			pf, err := prof.Build(sink.Events())
			if err != nil {
				t.Fatal(err)
			}
			freeze, frozen := tb.Rec.FreezeAt()
			if !frozen || pf.Freeze != freeze {
				t.Errorf("profiler freeze %v, recorder freeze %v (recorded %v)", pf.Freeze, freeze, frozen)
			}
			if down := tb.Rec.Downtime(); down <= 0 || pf.Downtime != down {
				t.Errorf("profiler downtime %v, recorder downtime %v", pf.Downtime, down)
			}
		})
	}
}
