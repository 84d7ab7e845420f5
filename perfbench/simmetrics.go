package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"accentmig/internal/experiments"
	"accentmig/internal/workload"
)

// simMetrics are the simulated end-to-end metrics. They are exact: a
// change that touches only host code must leave every value
// bit-identical, and the traced run must reproduce the untraced one.
type simMetrics struct {
	BytesMB      float64 `json:"sim_bytes_mb"`
	MsgS         float64 `json:"sim_msg_s"`
	TotalS       float64 `json:"sim_total_s"`
	DownP50MS    float64 `json:"sim_downtime_ms_p50"`
	DownMaxMS    float64 `json:"sim_downtime_ms_max"`
	FaultStallMS float64 `json:"sim_fault_stall_ms"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// downtimes fills the p50 (nearest rank, as the shard-stress scenario
// reads its own quantiles) and max of a downtime sample.
func (m *simMetrics) downtimes(ds []time.Duration) {
	if len(ds) == 0 {
		return
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	m.DownP50MS = ms(ds[(len(ds)-1)/2])
	m.DownMaxMS = ms(ds[len(ds)-1])
}

// meanNonZero averages the samples that occurred; a zero mean fault
// latency means the trial took no remote faults.
func meanNonZero(ds []time.Duration) time.Duration {
	var sum time.Duration
	n := 0
	for _, d := range ds {
		if d > 0 {
			sum += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// paperSim reads the metrics over the paper's evaluation grid, the 77
// cells every table and figure of `-exp all` draws on.
func paperSim(g *experiments.Grid) simMetrics {
	var m simMetrics
	var downs, faults []time.Duration
	for _, key := range experiments.GridKeys(workload.Kinds()) {
		tr := g.Cell(key.Kind, key.Strategy, key.Prefetch)
		m.BytesMB += float64(tr.BytesTotal) / 1e6
		m.MsgS += tr.MsgTime.Seconds()
		m.TotalS += tr.EndToEnd.Seconds()
		downs = append(downs, tr.Downtime)
		faults = append(faults, tr.RemoteFaultMean)
	}
	m.downtimes(downs)
	m.FaultStallMS = ms(meanNonZero(faults))
	return m
}

// transportSim reads the metrics over the pipeline and dedup sweep
// rows. Only the dedup rows carry wire bytes and only the pipeline rows
// carry message time.
func transportSim(pt *experiments.PipelineTable, dt *experiments.DedupTable) simMetrics {
	var m simMetrics
	var downs, faults []time.Duration
	for _, r := range pt.Rows {
		m.MsgS += r.MsgTime.Seconds()
		m.TotalS += r.EndToEnd.Seconds()
		downs = append(downs, r.Down)
	}
	for _, r := range dt.Rows {
		m.BytesMB += float64(r.Bytes) / 1e6
		m.TotalS += r.EndToEnd.Seconds()
		downs = append(downs, r.Down)
	}
	for _, r := range pt.Stall {
		faults = append(faults, r.FaultMean)
	}
	for _, r := range dt.Holder {
		faults = append(faults, r.FaultMean)
	}
	m.downtimes(downs)
	m.FaultStallMS = ms(meanNonZero(faults))
	return m
}

// clusterSim reads the metrics per completed migration of a
// shard-stress run: how many migrations complete varies with the seed,
// what each one costs much less. The scenario has no message-handling
// CPU model, so its message time is the wire time every machine spent
// sending, shared out over the migrations.
func clusterSim(r *experiments.ShardStressResult) simMetrics {
	var m simMetrics
	n := float64(len(r.Migrations))
	for _, mig := range r.Migrations {
		m.BytesMB += float64(mig.Bytes) / 1e6 / n
		m.TotalS += (mig.ResumeAt - mig.OfferAt).Seconds() / n
	}
	for _, pm := range r.PerMachine {
		m.MsgS += pm.WireBusy.Seconds() / n
	}
	m.DownP50MS = ms(r.DownP50)
	m.DownMaxMS = ms(r.DownMax)
	m.FaultStallMS = ms(r.FetchStallMean)
	return m
}

// digest fingerprints a deterministic result so runs in separate
// processes can be compared for identity.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}
