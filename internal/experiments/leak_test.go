package experiments

import (
	"runtime"
	"testing"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/faults"
	"accentmig/internal/workload"
)

// TestTrialKernelsClosed is the host-memory regression: every trial
// function closes the kernel it builds, so once it returns none of its
// simulation's proc goroutines — managers, pagers, netmsg servers,
// backers — stays parked holding the trial's address spaces.
func TestTrialKernelsClosed(t *testing.T) {
	crash := Config{Faults: &faults.Plan{Seed: 1, Crashes: []faults.Crash{{
		Machine: "src", AtPhase: "xfer.rimas", Policy: faults.CrashFail,
	}}}}
	trials := []struct {
		name string
		run  func() error
	}{
		{"RunTrial", func() error {
			_, err := RunTrial(Config{}, workload.Minprog, core.PureIOU, 0)
			return err
		}},
		{"RunHoldTrial", func() error {
			_, err := RunHoldTrial(Config{}, workload.Minprog, core.ResidentSet)
			return err
		}},
		{"RunResilienceTrial", func() error {
			_, err := RunResilienceTrial(crash, resilienceKind, core.PureIOU,
				ResilienceOptions{MaxRetries: 1, Degrade: true, AckTimeout: 2 * time.Second})
			return err
		}},
		{"PreCopyComparison", func() error {
			_, err := PreCopyComparison(Config{})
			return err
		}},
		{"NearestHolder", func() error {
			_, err := runNearestHolder(Config{}, true)
			return err
		}},
	}
	for _, tc := range trials {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the trial returned, want baseline %d",
						runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
