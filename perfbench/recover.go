package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/store"
	"github.com/b-iot/biot/internal/txn"
)

// recoverConfig is the outage path: a gateway crashes and restarts from
// its journal, then a relay that missed the fill catches up through
// cursor-paged SyncAll. It has no fsync waits, no PoW and no broadcast.
// A traced device-rpc run ends with it (see runDeviceRPC).
type recoverConfig struct {
	Records    int // journaled transactions
	Devices    int // devices per fill round
	Difficulty int
	Payload    int
	// Late late records shape the journal order (see displace). When
	// ReplayTries is set, the displacement is drawn again, from the same
	// seed, until replay would make that many attach tries within
	// replayTriesTolerance.
	Late        int
	ReplayTries int
	Link        time.Duration
	Cycles      int // crash/recover cycles
}

func defaultRecover() recoverConfig {
	return recoverConfig{
		Records:     1000,
		Devices:     8,
		Difficulty:  1,
		Payload:     64,
		Late:        100,
		ReplayTries: concurrentReplayTries,
		Link:        5 * time.Millisecond,
		Cycles:      4,
	}
}

// recoverInput is the journal a crashed gateway restarts from.
type recoverInput struct {
	clock  *clock.Virtual // the restarted nodes' clock: the fill's end
	mgrKey *identity.KeyPair
	disk   *chaos.MemFS
	ids    []hashutil.Hash // journaled IDs, in journal order
	order  []int           // journal position -> attach index
	shape  journalShape
	addrs  []identity.Address
}

const recoverJournal = "gateway.journal"

// concurrentReplayTries is the median number of attach tries replay made
// on the journals of eight concurrent 1000-reading fills (13990-18741;
// see lateShifts and TestConcurrentJournalShape). Every try checks a
// signature, so it is replay's work.
const concurrentReplayTries = 15700

// replayTriesTolerance is how far from ReplayTries a drawn journal's
// replay work may be; maxJournalDraws bounds the draws, after which the
// closest is kept.
const (
	replayTriesTolerance = 0.02
	maxJournalDraws      = 200
)

// fillRound is the virtual time between fill rounds.
const fillRound = 100 * time.Millisecond

// fillEpoch is the virtual time the recover journal is written at.
var fillEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// roundGateway hands every device of a fill round the tips drawn for it
// at the round's start.
type roundGateway struct {
	*node.FullNode
	tips [2]hashutil.Hash
}

func (g *roundGateway) TipsForApproval() (hashutil.Hash, hashutil.Hash, error) {
	return g.tips[0], g.tips[1], nil
}

// buildRecover fills a gateway, reads its attach order back and writes
// the journal through the store's append API in a seeded order. The
// fill has the shape concurrent devices give a tangle, each round's
// devices drawing two uniform tips from the same tip set, but runs in
// one goroutine on a virtual clock with its own seeded draw, so the same
// seed always gives the same transactions and the same DAG.
func buildRecover(ctx context.Context, cfg recoverConfig, rc runConfig) (*recoverInput, error) {
	in := &recoverInput{clock: clock.NewVirtual(fillEpoch)}
	var err error
	if in.mgrKey, err = keyFor(rc.Seed, "manager"); err != nil {
		return nil, err
	}
	gw, err := newNode(nodeSpec{key: in.mgrKey, managerPub: in.mgrKey.Public(),
		difficulty: cfg.Difficulty, seed: rc.Seed, clock: in.clock})
	if err != nil {
		return nil, err
	}
	defer closeNode(gw)
	keys := make([]*identity.KeyPair, cfg.Devices)
	for i := range keys {
		if keys[i], err = keyFor(rc.Seed, fmt.Sprintf("device-%d", i)); err != nil {
			return nil, err
		}
		in.addrs = append(in.addrs, keys[i].Address())
	}
	if _, err := authorize(ctx, gw, keys); err != nil {
		return nil, err
	}
	rg := &roundGateway{FullNode: gw}
	lights := make([]*node.LightNode, cfg.Devices)
	for d, k := range keys {
		if lights[d], err = node.NewLight(node.LightConfig{Key: k, Gateway: rg, Clock: in.clock}); err != nil {
			return nil, err
		}
	}
	payload := payloadFor(rc.Seed, "reading", cfg.Payload)
	rng := rand.New(rand.NewSource(rc.Seed))
	tips := make([][2]hashutil.Hash, cfg.Devices)
	for posted := 0; posted < cfg.Records; {
		set := gw.Tangle().Tips() // sorted
		for d := range tips {
			tips[d] = [2]hashutil.Hash{set[rng.Intn(len(set))], set[rng.Intn(len(set))]}
		}
		for d := 0; d < cfg.Devices && posted < cfg.Records; d++ {
			rg.tips = tips[d]
			if _, err := lights[d].PostReading(ctx, payload); err != nil {
				return nil, fmt.Errorf("fill: %w", err)
			}
			posted++
		}
		in.clock.Advance(fillRound)
	}

	var attached []*txn.Transaction
	for _, t := range gw.Tangle().ExportRange(0, gw.Tangle().Size()) {
		if t.Kind != txn.KindGenesis {
			attached = append(attached, t)
		}
	}
	// Only the readings raced each other into the journal: the
	// authorization list was durable before any device submitted, so it
	// keeps its place ahead of them.
	ctl := 0
	for ctl < len(attached) && attached[ctl].Kind != txn.KindData {
		ctl++
	}
	known := make(map[hashutil.Hash]bool)
	for _, id := range gw.Tangle().Genesis() {
		known[id] = true
	}
	miss := func(s journalShape) float64 {
		if cfg.ReplayTries == 0 {
			return 0
		}
		return math.Abs(float64(s.tries-cfg.ReplayTries)) / float64(cfg.ReplayTries)
	}
	var journal []*txn.Transaction
	draws := rand.New(rand.NewSource(rc.Seed))
	for draw := 1; ; draw++ {
		order := make([]int, ctl, len(attached))
		for i := range order {
			order[i] = i
		}
		for _, i := range displace(len(attached)-ctl, draws.Int63(), cfg.Late) {
			order = append(order, ctl+i)
		}
		j := make([]*txn.Transaction, len(order))
		for k, i := range order {
			j[k] = attached[i]
		}
		if shape := shapeOf(attached, j, known); journal == nil || miss(shape) < miss(in.shape) {
			in.order, in.shape, journal = order, shape, j
		}
		if miss(in.shape) <= replayTriesTolerance || draw == maxJournalDraws {
			break
		}
	}
	for _, t := range journal {
		in.ids = append(in.ids, t.ID())
	}
	in.disk = chaos.NewMemFS(rc.Seed)
	log, err := store.OpenFS(in.disk, recoverJournal, nil)
	if err != nil {
		return nil, err
	}
	if err := log.AppendBatch(journal); err != nil {
		log.Close()
		return nil, err
	}
	if err := log.Close(); err != nil {
		return nil, err
	}
	return in, nil
}

// recoverCycle is one crash, restart and catch-up.
type recoverCycle struct {
	recover time.Duration // crash to the restarted gateway serving
	catchup time.Duration // relay's SyncAll
	pages   []float64     // sync page round trips, ms
	handle  []float64     // relay's processing of each page, ms
	durable int
	synced  int64
	batches [2]int64 // relay VerifyBatch calls, signatures
	close   func()
}

func runRecoverCycle(ctx context.Context, cfg recoverConfig, rc runConfig, in *recoverInput, p *phase) (*recoverCycle, error) {
	tr := rc.Tracer
	cy := &recoverCycle{}
	fs := in.disk.Clone()
	fs.Reboot() // the crash: whatever the page cache held is gone
	bus := gossip.NewBus()
	bus.SetLatency(cfg.Link)
	var gw, relay *node.FullNode
	cy.close = func() {
		closeNode(relay)
		closeNode(gw)
		_ = bus.Close()
		relay, gw, bus = nil, nil, nil // let the collector have them
	}
	gwPeer, err := bus.Join("gateway")
	if err != nil {
		return cy, err
	}
	gwNet := &tapNet{Network: gwPeer, tr: tr, counts: &netCounts{}}
	if tr != nil {
		gwNet.wrap = func(h gossip.Handler) gossip.Handler {
			return gossip.HandlerFunc(func(from string, msg gossip.Message) (*gossip.Message, error) {
				start := time.Now()
				reply, err := h.HandleGossip(from, msg)
				tr.Record(tr.NewID(), 0, "gateway.serve."+msg.Type.String(), start, time.Now())
				return reply, err
			})
		}
	}

	// Collect the previous cycle's nodes, disk and bus now, so that
	// work does not land inside this cycle's timed restart and catch-up.
	runtime.GC()
	runtime.GC()
	crash := time.Now()
	gw, err = newNode(nodeSpec{key: in.mgrKey, managerPub: in.mgrKey.Public(), difficulty: cfg.Difficulty,
		seed: rc.Seed, net: gwNet, disk: fs, journal: recoverJournal, clock: in.clock})
	if err != nil {
		return cy, fmt.Errorf("restart: %w", err)
	}
	served := time.Now()
	cy.recover = served.Sub(crash)
	tr.Record(tr.NewID(), 0, "recover.restart", crash, served)
	for _, id := range in.ids {
		if gw.Tangle().Contains(id) {
			cy.durable++
		}
	}

	relayKey, err := keyFor(rc.Seed, "relay")
	if err != nil {
		return cy, err
	}
	relayPeer, err := bus.Join("relay")
	if err != nil {
		return cy, err
	}
	// A page is attached by the time the relay asks for the next one,
	// or by the time SyncAll returns for the last.
	var pageTxs int
	var pageEnd time.Time
	attached := func(at time.Time) {
		if pageTxs > 0 {
			cy.handle = append(cy.handle, ms(at.Sub(pageEnd)))
		}
	}
	relayNet := &tapNet{Network: relayPeer, tr: tr, counts: &netCounts{},
		synced: func(start, end time.Time, reply gossip.Message) {
			attached(start)
			pageTxs, pageEnd = len(reply.TxData), end
			cy.pages = append(cy.pages, ms(end.Sub(start)))
		}}
	relay, err = newNode(nodeSpec{key: relayKey, managerPub: in.mgrKey.Public(), difficulty: cfg.Difficulty,
		seed: rc.Seed + 1, net: relayNet, clock: in.clock})
	if err != nil {
		return cy, err
	}
	start := time.Now()
	relay.SyncAll(ctx)
	end := time.Now()
	attached(end)
	cy.catchup = end.Sub(start)
	tr.Record(tr.NewID(), 0, "recover.catchup", start, end)
	cy.synced = relayNet.counts.syncTxs.Load()
	cy.batches = [2]int64{relay.Pipeline().BatchVerifies.Value(), relay.Pipeline().BatchVerified.Value()}

	missing := 0
	for _, id := range in.ids {
		if !relay.Tangle().Contains(id) {
			missing++
		}
	}
	if missing > 0 {
		p.problem("relay caught up without %d of %d journaled transactions", missing, len(in.ids))
	}
	checkCredit(p, []*node.FullNode{gw, relay}, in.addrs)
	checkRejects(p, gw, []*node.FullNode{relay}, 0)
	return cy, nil
}

// runRecover builds the journal once and crashes, restarts and catches
// up from it Cycles times. It reports only per-layer metrics, none of
// which device-rpc sets.
func runRecover(ctx context.Context, cfg recoverConfig, rc runConfig) (*phase, error) {
	p := newPhase()
	in, err := buildRecover(ctx, cfg, rc)
	if err != nil {
		return nil, fmt.Errorf("recover setup: %w", err)
	}
	var cycles []*recoverCycle
	for len(cycles) < cfg.Cycles {
		if len(cycles) > 0 {
			cycles[len(cycles)-1].close()
		}
		cy, err := runRecoverCycle(ctx, cfg, rc, in, p)
		if err != nil {
			cy.close()
			return nil, fmt.Errorf("recover cycle %d: %w", len(cycles), err)
		}
		cycles = append(cycles, cy)
	}
	cycles[len(cycles)-1].close()

	var restarts, catchups, pages, handle []float64
	var synced, calls, sigs int64
	durable := 1.0
	for _, cy := range cycles {
		restarts = append(restarts, ms(cy.recover))
		catchups = append(catchups, ms(cy.catchup))
		pages = append(pages, cy.pages...)
		handle = append(handle, cy.handle...)
		synced += cy.synced
		calls += cy.batches[0]
		sigs += cy.batches[1]
		durable = min(durable, float64(cy.durable)/float64(len(in.ids)))
		p.attempted += len(in.ids)
		p.failed += len(in.ids) - cy.durable
	}
	if durable != 1 {
		p.problem("durable_frac %.6f: synced records lost in the crash", durable)
	}

	l := p.layer
	l["recover.recover_s"] = quantile(restarts, 0.5) / 1000
	l["recover.catchup_s"] = quantile(catchups, 0.5) / 1000
	l["recover.durable_frac"] = durable
	l["recover.journal_inversions"] = float64(in.shape.inversions)
	l["recover.replay_deferred"] = float64(in.shape.deferred)
	l["recover.replay_passes"] = float64(in.shape.passes)
	l["recover.replay_tries"] = float64(in.shape.tries)
	l["recover.cycles"] = float64(len(cycles))
	l["store.replay_ms_per_ktx"] = quantile(restarts, 0.5) * 1000 / float64(len(in.ids))
	l["gossip.sync_page_ms_p50"] = quantile(pages, 0.5)
	l["gossip.sync_pages"] = ratio(float64(len(pages)), float64(len(cycles)))
	l["relay.sync_tx_per_page"] = ratio(float64(synced), float64(len(pages)))
	l["relay.verify_batch_mean"] = ratio(float64(sigs), float64(calls))
	l["relay.handle_ms_p50"] = quantile(handle, 0.5)
	l["relay.handle_self_ms_p50"] = quantile(handle, 0.5) // the relay has no disk
	return p, nil
}
