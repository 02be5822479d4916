package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/store"
	"github.com/b-iot/biot/internal/txn"
)

func (s journalShape) String() string {
	sh := append([]int(nil), s.lateShifts...)
	sort.Ints(sh)
	return fmt.Sprintf("records %d inversions %d parent-late %d shifts %v deferred %d passes %d tries %d",
		s.records, s.inversions, len(sh), sh, s.deferred, s.passes, s.tries)
}

// concurrentFill has devices post readings to a journaling gateway from
// one goroutine each, as concurrent devices do, and returns the attach
// order, the journal order and the journal's disk.
func concurrentFill(t *testing.T, seed int64, devices, records int, fsync time.Duration) (attached, journal []*txn.Transaction, known map[hashutil.Hash]bool, disk *chaos.MemFS) {
	ctx := context.Background()
	mgrKey, err := keyFor(seed, "manager")
	if err != nil {
		t.Fatal(err)
	}
	disk = chaos.NewMemFS(seed)
	disk.SetSyncDelay(fsync)
	gw, err := newNode(nodeSpec{key: mgrKey, managerPub: mgrKey.Public(), difficulty: 1,
		seed: seed, disk: disk, journal: recoverJournal})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]*identity.KeyPair, devices)
	for i := range keys {
		if keys[i], err = keyFor(seed, fmt.Sprintf("device-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := authorize(ctx, gw, keys); err != nil {
		t.Fatal(err)
	}
	payload := payloadFor(seed, "reading", 64)
	var wg sync.WaitGroup
	for d, k := range keys {
		light, err := node.NewLight(node.LightConfig{Key: k, Gateway: gw})
		if err != nil {
			t.Fatal(err)
		}
		n := records / devices
		if d < records%devices {
			n++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := light.PostReading(ctx, payload); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	known = make(map[hashutil.Hash]bool)
	for _, tx := range gw.Tangle().ExportRange(0, gw.Tangle().Size()) {
		if tx.Kind == txn.KindGenesis {
			known[tx.ID()] = true
		} else {
			attached = append(attached, tx)
		}
	}
	closeNode(gw)
	log, err := store.OpenFS(disk, recoverJournal, func(tx *txn.Transaction) error {
		journal = append(journal, tx)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	return attached, journal, known, disk
}

// TestConcurrentJournalShape measures the journal concurrent devices
// write, beside the seeded journal the recover phase replays, and
// times a real replay of each. It takes a while and its figures depend
// on the scheduler, so it runs only when asked:
//
//	PERFBENCH_JOURNAL_SHAPE=5 go test -run ConcurrentJournalShape -v
//
// where the value is the number of seeds.
func TestConcurrentJournalShape(t *testing.T) {
	seeds, _ := strconv.Atoi(os.Getenv("PERFBENCH_JOURNAL_SHAPE"))
	if seeds <= 0 {
		t.Skip("set PERFBENCH_JOURNAL_SHAPE to the number of seeds to measure")
	}
	cfg := defaultRecover()
	replay := func(seed int64, disk *chaos.MemFS) time.Duration {
		mgrKey, err := keyFor(seed, "manager")
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		n, err := newNode(nodeSpec{key: mgrKey, managerPub: mgrKey.Public(), difficulty: 1,
			seed: seed, disk: disk.Clone(), journal: recoverJournal})
		took := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		closeNode(n)
		return took
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, fsync := range []time.Duration{0, 2 * time.Millisecond} {
			attached, journal, known, disk := concurrentFill(t, seed, cfg.Devices, cfg.Records, fsync)
			t.Logf("seed %d concurrent fsync %v: %v replay %v", seed, fsync,
				shapeOf(attached, journal, known), replay(seed, disk))
		}
		in, err := buildRecover(context.Background(), cfg, runConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d seeded: %v replay %v", seed, in.shape, replay(seed, in.disk))
	}
}
