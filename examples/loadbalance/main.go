// Loadbalance: the paper's §6 calls for "automatic migration
// strategies" with load metrics aware that a migrated process's memory
// may be dispersed among several hosts. This example runs a three-
// machine cluster with eight compute jobs all starting on one host and
// lets the dispersal-aware Balancer spread them lazily, then compares
// the makespan against leaving them alone.
//
//	go run ./examples/loadbalance
package main

import (
	"fmt"
	"log"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/machine"
	"accentmig/internal/netlink"
	"accentmig/internal/sim"
	"accentmig/internal/trace"
	"accentmig/internal/vm"
)

const jobs = 8

func main() {
	withoutBal, _ := run(false)
	withBal, migrations := run(true)
	fmt.Printf("\n%d CPU-bound jobs, all started on one of three hosts:\n", jobs)
	fmt.Printf("  makespan without balancing: %6.1fs\n", withoutBal.Seconds())
	fmt.Printf("  makespan with balancing:    %6.1fs  (%d automatic lazy migrations)\n",
		withBal.Seconds(), migrations)
	fmt.Printf("  speedup: %.1fx\n", withoutBal.Seconds()/withBal.Seconds())
}

func buildJob(m *machine.Machine, name string) (*machine.Process, error) {
	pr, err := m.NewProcess(name, 1)
	if err != nil {
		return nil, err
	}
	reg, err := pr.AS.Validate(0, 128*512, "data")
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < 128; i++ {
		pg := reg.Seg.Materialize(i, []byte{byte(i)})
		pg.State.OnDisk = true
	}
	var ops []trace.Op
	for b := 0; b < 120; b++ {
		ops = append(ops,
			trace.Compute{D: 250 * time.Millisecond},
			trace.Touch{Addr: vm.Addr(512 * (b % 128))},
		)
	}
	pr.Program = &trace.Program{Ops: ops}
	return pr, nil
}

func run(balance bool) (time.Duration, uint64) {
	k := sim.New()
	var ms []*machine.Machine
	var mgrs []*core.Manager
	for i := 0; i < 3; i++ {
		m := machine.New(k, fmt.Sprintf("host%d", i), machine.Config{})
		ms = append(ms, m)
		mgrs = append(mgrs, core.NewManager(m))
	}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			machine.Connect(ms[i], ms[j], netlink.Config{})
		}
	}
	for i := range ms {
		for j := range mgrs {
			if i != j {
				ms[i].Net.AddRoute(mgrs[j].Port.ID, ms[j].Name)
			}
		}
	}

	var procs []*machine.Process
	for i := 0; i < jobs; i++ {
		pr, err := buildJob(ms[0], fmt.Sprintf("job%d", i))
		if err != nil {
			log.Fatal(err)
		}
		procs = append(procs, pr)
		ms[0].Start(pr)
	}

	b := core.NewBalancer(mgrs...)
	stop := sim.NewGate(k)
	if balance {
		k.Go("balancer", func(p *sim.Proc) {
			if err := b.Run(p, 3*time.Second, stop); err != nil {
				log.Printf("balancer: %v", err)
			}
		})
	}

	var makespan time.Duration
	k.Go("waiter", func(p *sim.Proc) {
		for _, pr := range procs {
			// A job may have moved; wait on the Done gate of whichever
			// incarnation is current. Migration preserves the Process
			// object only per-host, so track by name.
			name := pr.Name
			for {
				var cur *machine.Process
				for _, m := range ms {
					if c, ok := m.Process(name); ok {
						cur = c
						break
					}
				}
				if cur != nil && cur.Status == machine.Finished {
					break
				}
				p.Sleep(500 * time.Millisecond)
			}
		}
		makespan = p.Now()
		stop.Open()
	})
	k.Run()

	if balance {
		fmt.Printf("with balancing: final distribution ")
		for _, l := range b.Loads() {
			fmt.Printf("[%s owes %d pages] ", l.Name, l.OwedPages)
		}
		fmt.Println()
	}
	return makespan, b.Migrations()
}
