package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/txn"
)

// The constant-cost disk serializes its fsyncs and keeps no contents;
// a tapFS over it counts every sync, its wall time and the bytes written.
func TestDiskFsyncAccounting(t *testing.T) {
	const delay = 2 * time.Millisecond
	d := &tapFS{FS: NewDisk(delay)}
	f, err := d.OpenFile("j", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if end, err := f.Seek(0, io.SeekEnd); err != nil || end != 100 {
		t.Fatalf("seek end = %d, %v; want 100", end, err)
	}
	if n, err := f.Read(make([]byte, 8)); n != 0 || err != io.EOF {
		t.Fatalf("read = %d, %v; want 0, EOF: the disk keeps no contents", n, err)
	}

	// One writer: each sync is busy for the fixed delay, never longer
	// than the wall time it took.
	start := time.Now()
	for i := 0; i < 3; i++ {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	wall := time.Since(start)
	if s := d.Stats(); s.Syncs != 3 || s.Busy < 3*delay || s.Busy > wall {
		t.Fatalf("3 syncs: counted %d, busy %v, wall %v; want 3, busy in [%v, wall]", s.Syncs, s.Busy, wall, 3*delay)
	}

	// Syncs from several writers serialize on the one disk.
	const writers, each = 4, 5
	start = time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := d.OpenFile("j", os.O_RDWR, 0)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < each; i++ {
				if _, err := f.Write(make([]byte, 10)); err != nil {
					t.Error(err)
				}
				if err := f.Sync(); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	wall = time.Since(start)
	s := d.Stats()
	if s.Syncs != 3+writers*each {
		t.Fatalf("syncs = %d, want %d", s.Syncs, 3+writers*each)
	}
	if s.Written != 100+writers*each*10 {
		t.Fatalf("written = %d, want %d", s.Written, 100+writers*each*10)
	}
	if least := time.Duration(writers*each) * delay; wall < least {
		t.Fatalf("wall %v: %d serialized fsyncs take at least %v", wall, writers*each, least)
	}
}

func TestDisplaceDeterministic(t *testing.T) {
	a := displace(1000, 7, 100)
	b := displace(1000, 7, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different order at %d", i)
		}
	}
	if inversions(a) != inversions(b) || inversions(a) == 0 {
		t.Fatalf("inversions %d and %d", inversions(a), inversions(b))
	}
	c := displace(1000, 8, 100)
	same := true
	for i := range a {
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("another seed gave the same order")
	}
	sorted := append([]int(nil), a...)
	sort.Ints(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("not a permutation: %d at %d", v, i)
		}
	}
}

func TestInversionsMatchesPairCount(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		order := displace(200, seed, 20)
		want := 0
		for i := range order {
			for j := i + 1; j < len(order); j++ {
				if order[i] > order[j] {
					want++
				}
			}
		}
		if got := inversions(order); got != want {
			t.Fatalf("seed %d: inversions = %d, want %d", seed, got, want)
		}
	}
}

// A stall that delays the requests of one slice leaves the sliced p90
// where it was, and so does a slow warm-up slice; a slowdown in every
// slice moves it.
func TestSlicedQuantileDiscardsAStalledSlice(t *testing.T) {
	var at []time.Duration
	var xs []float64
	for i := 0; i < 900; i++ { // 9 slices of 100 requests, 1-10 ms
		at = append(at, time.Duration(i)*sliceLen/100)
		xs = append(xs, float64(1+i%10))
	}
	if got := slicedQuantile(at, xs, 0.9); got != 9 {
		t.Fatalf("p90 = %v, want 9", got)
	}
	stalled := append([]float64(nil), xs...)
	for i := 0; i < 100; i++ {
		stalled[i] += 50 // warm-up
		stalled[300+i] += 50
	}
	if got := slicedQuantile(at, stalled, 0.9); got != 9 {
		t.Errorf("p90 with one stalled slice = %v, want 9", got)
	}
	if got := quantile(stalled, 0.9); got <= 9 {
		t.Errorf("whole-window p90 with a stalled slice = %v, want above 9", got)
	}
	slower := append([]float64(nil), xs...)
	for i := range slower {
		slower[i] += 1
	}
	if got := slicedQuantile(at, slower, 0.9); got != 10 {
		t.Errorf("p90 after a slowdown = %v, want 10", got)
	}
}

func smallRecover() recoverConfig {
	return recoverConfig{Records: 200, Devices: 4, Difficulty: 1, Payload: 32,
		Late: 20, Link: time.Millisecond, Cycles: 2}
}

// The journal, its order and its inversion count come from the seed
// alone: two builds with one seed write the same records in the same
// order.
func TestRecoverJournalOrderFromSeed(t *testing.T) {
	ctx := context.Background()
	var first *recoverInput
	for i := 0; i < 2; i++ {
		in, err := buildRecover(ctx, smallRecover(), runConfig{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(in.ids) != 201 { // the readings plus the authorization list
			t.Fatalf("journal holds %d records, want 201", len(in.ids))
		}
		if first == nil {
			first = in
			continue
		}
		if in.shape.inversions != first.shape.inversions {
			t.Fatalf("inversions %d then %d", first.shape.inversions, in.shape.inversions)
		}
		for k := range in.order {
			if in.order[k] != first.order[k] || in.ids[k] != first.ids[k] {
				t.Fatalf("journal position %d differs between builds", k)
			}
		}
	}
}

// The authorization list was durable before any device submitted, so
// no seed may journal a reading ahead of it: a relay catching up from a
// gateway that replayed such a journal would see a reading with no list
// in its past cone before any list at all.
func TestRecoverJournalKeepsListFirst(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		in, err := buildRecover(context.Background(), smallRecover(), runConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if in.order[0] != 0 {
			t.Fatalf("seed %d journals attach index %d first, not the authorization list", seed, in.order[0])
		}
	}
}

func checkPhase(t *testing.T, p *phase, traced bool) {
	t.Helper()
	if len(p.problems) > 0 {
		t.Fatalf("checks failed: %v", p.problems)
	}
	if p.attempted == 0 || p.failed != 0 {
		t.Fatalf("attempted %d, failed %d", p.attempted, p.failed)
	}
	for _, m := range endToEnd {
		if v, ok := p.e2e[m.name]; !ok || v <= 0 {
			t.Errorf("%s = %v, %v", m.name, v, ok)
		}
	}
	if traced && p.layer["runtime.alloc_kib_per_tx"] <= 0 {
		t.Errorf("traced run measured no allocations")
	}
}

// replayPasses follows replay's scan and retry passes: a journal that
// holds a chain in reverse defers all but its root, then resolves one
// more link per pass.
func TestReplayPassesFollowsChain(t *testing.T) {
	root := hashutil.Sum([]byte("genesis"))
	var chain []*txn.Transaction
	parent := root
	for i := 0; i < 4; i++ {
		tx := &txn.Transaction{Trunk: parent, Branch: parent, Kind: txn.KindData, Payload: []byte{byte(i)}}
		chain = append(chain, tx)
		parent = tx.ID()
	}
	known := map[hashutil.Hash]bool{root: true}
	if d, p, n := replayPasses(chain, known); d != 0 || p != 0 || n != 4 {
		t.Fatalf("in order: deferred %d passes %d tries %d; want 0 0 4", d, p, n)
	}
	rev := []*txn.Transaction{chain[3], chain[2], chain[1], chain[0]}
	// The scan attaches only the root's child; each pass then attaches
	// the first deferred record whose parent is in.
	if d, p, n := replayPasses(rev, known); d != 3 || p != 3 || n != 4+3+2+1 {
		t.Fatalf("reversed: deferred %d passes %d tries %d; want 3 3 10", d, p, n)
	}
}

// At full scale every seed's journal asks of replay the work measured
// on concurrent fills, within the set tolerance.
func TestRecoverJournalReplayWork(t *testing.T) {
	if testing.Short() {
		t.Skip("builds full-size journals")
	}
	cfg := defaultRecover()
	for seed := int64(1); seed <= 3; seed++ {
		in, err := buildRecover(context.Background(), cfg, runConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		miss := math.Abs(float64(in.shape.tries-cfg.ReplayTries)) / float64(cfg.ReplayTries)
		if miss > replayTriesTolerance || in.shape.passes < 2 || in.shape.deferred == 0 {
			t.Errorf("seed %d: %d tries (want %d ± %.0f%%), %d passes, %d deferred", seed,
				in.shape.tries, cfg.ReplayTries, 100*replayTriesTolerance, in.shape.passes, in.shape.deferred)
		}
	}
}

func TestIngestSmoke(t *testing.T) {
	cfg := ingestConfig{Devices: 4, Relays: 2, Rate: 100, Link: time.Millisecond,
		Fsync: time.Millisecond, Difficulty: 4, Payload: 32, Setups: 2}
	for _, tr := range []*Tracer{nil, newTracer()} {
		p, err := runIngest(context.Background(), cfg, runConfig{Seed: 1, Window: 300 * time.Millisecond, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		checkPhase(t, p, tr != nil)
		if tr != nil && (p.layer["node.submit_ms_p50"] <= 0 || p.layer["relay.handle_ms_p50"] <= 0 ||
			p.layer["gossip.tx_per_datagram"] <= 0 || p.layer["store.fsyncs_per_ktx"] <= 0) {
			t.Errorf("traced ingest missed a layer: %v", p.layer)
		}
	}
}

func TestDeviceRPCSmoke(t *testing.T) {
	cfg := rpcConfig{Devices: 4, Rate: 100, Reads: 4, Fsync: time.Millisecond,
		Difficulty: 4, Payload: 32, Setups: 2, Recover: smallRecover()}
	for _, tr := range []*Tracer{nil, newTracer()} {
		p, err := runDeviceRPC(context.Background(), cfg, runConfig{Seed: 1, Window: 300 * time.Millisecond, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		checkPhase(t, p, tr != nil)
		if tr != nil && (p.layer["rpc.server_ms_p50.submit"] <= 0 || p.layer["rpc.client_ms_p50.credit"] <= 0 ||
			p.layer["read.p50_ms"] <= 0 || p.layer["recover.cycles"] < 2 || p.layer["gossip.sync_pages"] <= 0) {
			t.Errorf("traced device-rpc missed a layer: %v", p.layer)
		}
	}
}

func TestRecoverSmoke(t *testing.T) {
	for _, tr := range []*Tracer{nil, newTracer()} {
		p, err := runRecover(context.Background(), smallRecover(), runConfig{Seed: 1, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.problems) > 0 || p.attempted == 0 || p.failed != 0 {
			t.Fatalf("checks failed: %v (attempted %d, failed %d)", p.problems, p.attempted, p.failed)
		}
		if p.layer["recover.durable_frac"] != 1 || p.layer["recover.cycles"] < 2 || p.layer["gossip.sync_pages"] <= 0 {
			t.Errorf("recover layers: %v", p.layer)
		}
	}
}

// BENCHMARK.json must name exactly the workloads and metrics this
// program runs and reports.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d implemented", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	match := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d listed, %d reported", kind, len(listed), len(defs))
			return
		}
		for i, m := range listed {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: listed %s [%s], reported %s [%s]", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	match("end_to_end", spec.EndToEnd, endToEnd)
	match("per_layer", spec.PerLayer, perLayer)
}
