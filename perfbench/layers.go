package main

import (
	"time"

	"github.com/b-iot/biot/internal/loadgen"
	"github.com/b-iot/biot/internal/node"
)

// Per-layer metrics more than one workload derives the same way.

// verifyBatchMean is signatures per VerifyBatch call across the relays,
// read from the nodes' public pipeline counters.
func verifyBatchMean(relays []*node.FullNode) float64 {
	var calls, sigs int64
	for _, r := range relays {
		calls += r.Pipeline().BatchVerifies.Value()
		sigs += r.Pipeline().BatchVerified.Value()
	}
	return ratio(float64(sigs), float64(calls))
}

// lateness reports how far behind its schedule the generator fired, so
// a tail the host caused shows here rather than as program latency.
func lateness(p *phase, gen loadgen.Result) {
	late := make([]float64, len(gen.Samples))
	for i, s := range gen.Samples {
		late[i] = ms(s.Lateness)
	}
	p.layer["loadgen.lateness_p99_ms"] = quantile(late, 0.99)
	p.layer["loadgen.lateness_max_ms"] = maxOf(late)
}

// storeLayer derives the journal metrics from the disks' accounting over
// the measured window; every node journals every transaction once.
func storeLayer(p *phase, d DiskStats, disks, acked int, wall time.Duration) {
	records := float64(acked * disks)
	p.layer["store.fsyncs_per_ktx"] = ratio(float64(d.Syncs)*1000, float64(acked))
	p.layer["store.tx_per_fsync"] = ratio(records, float64(d.Syncs))
	p.layer["store.fsync_busy_frac"] = ratio(d.Busy.Seconds(), wall.Seconds()*float64(disks))
	p.layer["store.write_bytes_per_tx"] = ratio(float64(d.Written), float64(acked))
}

func runtimeLayer(p *phase, w window, txs int) {
	p.layer["runtime.alloc_kib_per_tx"] = ratio(w.allocKiB, float64(txs))
	p.layer["runtime.gc_cpu_frac"] = w.gcFrac
}

// deviceLayer splits the device session into its gateway calls and the
// remainder (PoW, signing and sealing), and checks that the separately
// timed stages, PoW from the light nodes' own PowTime histograms and the
// gateway calls from their spans, add up to the service time the
// generator measured. The devices' light nodes did no PoW before the
// measured window.
func deviceLayer(p *phase, tr *Tracer, devs []*device, post []float64, gen loadgen.Result) {
	l := p.layer
	l["pow.self_ms_p50"] = quantile(tr.SelfTimes("device.post"), 0.5)
	l["tangle.tips_ms_p50"] = quantile(tr.Durations("gw.tips"), 0.5)
	l["tangle.get_ms_p50"] = quantile(tr.Durations("gw.get"), 0.5)
	l["core.difficulty_ms_p50"] = quantile(tr.Durations("gw.difficulty"), 0.5)
	submits := tr.Durations("gw.submit")
	l["node.submit_ms_p50"] = quantile(submits, 0.5)
	l["node.submit_ms_p90"] = quantile(submits, 0.9)

	var stages, service float64
	for _, name := range []string{"gw.tips", "gw.get", "gw.difficulty", "gw.submit"} {
		for _, d := range tr.Durations(name) {
			stages += d
		}
	}
	for _, d := range devs {
		stages += ms(d.light.PowTime.Summarize().Total)
	}
	for i, s := range gen.Samples {
		if s.Err == nil && post[i] > 0 {
			service += ms(s.Service)
		}
	}
	gap := 1 - ratio(stages, service)
	l["trace.stage_gap_frac"] = gap
	if gap < 0 || gap > stageSlack {
		p.problem("device stages sum to %.4f of the ack service time, outside [%.2f, 1]", 1-gap, 1-stageSlack)
	}
}

// stageSlack bounds the share of the ack service time the timed device
// stages leave out: signing and sealing the reading, building the
// transaction, waiting for the device's own previous operation and for
// the goroutine to be scheduled. A stage timed twice makes the gap
// negative; one left untimed makes it large.
const stageSlack = 0.15
