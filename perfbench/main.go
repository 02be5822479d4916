// Command perfbench is the repository benchmark. It runs one workload
// with a seed for a fixed measured window, checks the program's outputs,
// and prints one JSON result as its last line of standard output:
//
//	go run . --workload ingest --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics. With --trace 1
// it runs the workload twice on fresh clusters, half the window each:
// once untraced and once with every seam recording spans. The result
// then holds the per-layer metrics of the traced half, and
// trace.overhead_frac compares the two halves' CPU per transaction. The
// spans are written to .bench_build/spans-<workload>-<seed>.jsonl.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"github.com/b-iot/biot/internal/identity"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run. Every workload reports
// each of them; README.md gives each workload's reading of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ack_p50_ms", "ms"},
	{"ack_p90_ms", "ms"},
	{"e2e_p50_ms", "ms"},
	{"e2e_p90_ms", "ms"},
	{"cpu_ms_per_tx", "ms"},
	{"heap_live_mib", "MiB"},
}

// perLayer lists the metrics of a traced run. A layer a workload does
// not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"pow.self_ms_p50", "ms"},
		{"tangle.tips_ms_p50", "ms"},
		{"tangle.get_ms_p50", "ms"},
		{"core.difficulty_ms_p50", "ms"},
		{"node.submit_ms_p50", "ms"},
		{"node.submit_ms_p90", "ms"},
		{"node.retries_per_ktx", "count"},
		{"store.fsyncs_per_ktx", "count"},
		{"store.tx_per_fsync", "count"},
		{"store.fsync_busy_frac", "ratio"},
		{"store.write_bytes_per_tx", "bytes"},
		{"store.replay_ms_per_ktx", "ms"},
		{"gossip.tx_per_datagram", "count"},
		{"gossip.datagrams_per_tx", "count"},
		{"gossip.bytes_per_tx", "bytes"},
		{"gossip.queue_wait_ms_p50", "ms"},
		{"gossip.sync_pages", "count"},
		{"gossip.sync_page_ms_p50", "ms"},
		{"relay.handle_ms_p50", "ms"},
		{"relay.handle_self_ms_p50", "ms"},
		{"relay.verify_batch_mean", "count"},
		{"relay.sync_tx_per_page", "count"},
	}
	for _, r := range rpcRoutes {
		defs = append(defs, metricDef{"rpc.client_ms_p50." + r, "ms"})
	}
	for _, r := range rpcRoutes {
		defs = append(defs, metricDef{"rpc.server_ms_p50." + r, "ms"})
	}
	return append(defs,
		metricDef{"rpc.self_ms_p50", "ms"},
		metricDef{"runtime.alloc_kib_per_tx", "KiB"},
		metricDef{"runtime.gc_cpu_frac", "ratio"},
		metricDef{"runtime.goroutines_end", "count"},
		metricDef{"heap.kib_per_resident_tx", "KiB"},
		metricDef{"recover.recover_s", "s"},
		metricDef{"recover.catchup_s", "s"},
		metricDef{"recover.durable_frac", "ratio"},
		metricDef{"recover.journal_inversions", "count"},
		metricDef{"recover.replay_deferred", "count"},
		metricDef{"recover.replay_passes", "count"},
		metricDef{"recover.replay_tries", "count"},
		metricDef{"recover.cycles", "count"},
		metricDef{"tail.ack_p99_ms", "ms"},
		metricDef{"tail.e2e_p99_ms", "ms"},
		metricDef{"read.p50_ms", "ms"},
		metricDef{"read.p90_ms", "ms"},
		metricDef{"tail.read_p99_ms", "ms"},
		metricDef{"loadgen.acked_frac", "ratio"},
		metricDef{"loadgen.late_confirms", "count"},
		metricDef{"loadgen.lateness_p99_ms", "ms"},
		metricDef{"loadgen.lateness_max_ms", "ms"},
		metricDef{"trace.stage_gap_frac", "ratio"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}()

// workloads maps a workload name to its run at the benchmark's scale.
var workloads = map[string]func(context.Context, runConfig) (*phase, error){
	"ingest": func(ctx context.Context, rc runConfig) (*phase, error) {
		return runIngest(ctx, defaultIngest(), rc)
	},
	"device-rpc": func(ctx context.Context, rc runConfig) (*phase, error) {
		return runDeviceRPC(ctx, defaultDeviceRPC(), rc)
	},
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: ingest or device-rpc")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	if workloads[*name] == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	window := time.Duration(*seconds * float64(time.Second))
	before, err := hostVerifyMicros(hostProbe)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, health, err := measure(context.Background(), *name, *seed, window, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	after, err := hostVerifyMicros(hostProbe)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	health["host.verify_us_before"], health["host.verify_us_after"] = before, after
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{
		"provenance": provenance(*name, *seed, window, *trace),
		"health":     health,
	}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
}

// healthMetrics describe the load generator rather than the program;
// every run reports them beside its result, so a tail the host caused
// shows as lateness and not as program latency.
var healthMetrics = []string{"loadgen.lateness_p99_ms", "loadgen.lateness_max_ms",
	"loadgen.acked_frac", "loadgen.late_confirms"}

// hostProbe is how long hostVerifyMicros times verifications.
const hostProbe = 500 * time.Millisecond

// hostVerifyMicros is the median time of one signature verification,
// the operation replay and relay admission spend most of their CPU on,
// timed in batches for d. Every run reports it before and after the
// workload, so a run on a host that was slower at the time shows it
// beside its result.
func hostVerifyMicros(d time.Duration) (float64, error) {
	key, err := keyFor(0, "host-probe")
	if err != nil {
		return 0, err
	}
	msg := []byte("perfbench host probe")
	sig := key.Sign(msg)
	const batch = 20
	var per []float64
	for end := time.Now().Add(d); time.Now().Before(end); {
		start := time.Now()
		for i := 0; i < batch; i++ {
			if err := identity.Verify(key.Public(), msg, sig); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/1e3/batch)
	}
	return quantile(per, 0.5), nil
}

// measure runs the workload and assembles the result and the health of
// the run that produced it.
func measure(ctx context.Context, name string, seed int64, window time.Duration, trace bool) (*Result, map[string]float64, error) {
	run := workloads[name]
	res := &Result{Metrics: make(map[string]Metric)}
	report := func(p *phase) {
		res.Attempted += p.attempted
		res.Failed += p.failed
		for _, msg := range p.problems {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
		}
	}
	health := func(p *phase) map[string]float64 {
		h := make(map[string]float64)
		for _, m := range healthMetrics {
			h[m] = p.layer[m]
		}
		return h
	}
	if !trace {
		p, err := run(ctx, runConfig{Seed: seed, Window: window})
		if err != nil {
			return nil, nil, err
		}
		report(p)
		res.Correct = len(p.problems) == 0
		for _, m := range endToEnd {
			v, ok := p.e2e[m.name]
			if !ok {
				return nil, nil, fmt.Errorf("%s did not measure %s", name, m.name)
			}
			res.Metrics[m.name] = Metric{Value: v, Unit: m.unit}
		}
		return res, health(p), nil
	}

	base, err := run(ctx, runConfig{Seed: seed, Window: window / 2})
	if err != nil {
		return nil, nil, err
	}
	report(base)
	tr := newTracer()
	p, err := run(ctx, runConfig{Seed: seed, Window: window / 2, Tracer: tr})
	if err != nil {
		return nil, nil, err
	}
	report(p)
	res.Correct = len(base.problems) == 0 && len(p.problems) == 0
	p.layer["runtime.goroutines_end"] = float64(settledGoroutines())
	p.layer["trace.overhead_frac"] = ratio(p.e2e["cpu_ms_per_tx"], base.e2e["cpu_ms_per_tx"]) - 1
	for _, m := range perLayer {
		res.Metrics[m.name] = Metric{Value: p.layer[m.name], Unit: m.unit}
	}
	spans := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
	if err := tr.WriteSpans(spans); err != nil {
		return nil, nil, err
	}
	return res, health(p), nil
}

// provenance identifies what was measured and on what.
func provenance(name string, seed int64, window time.Duration, trace int) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    window.Seconds(),
		"trace":      trace,
		"source":     sourceID(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
	}
}

// sourceID is the git commit the binary was built from when the build
// saw one, else a digest of the Go sources under the working directory.
func sourceID() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return "commit " + rev + dirty
		}
	}
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return "sources sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
