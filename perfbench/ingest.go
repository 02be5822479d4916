package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/loadgen"
	"github.com/b-iot/biot/internal/node"
)

// ingestConfig is the everyday write path: in-process devices post
// readings round-robin to one gateway at a fixed open-loop rate, and the
// gateway fans out to relay peers over a modelled link.
type ingestConfig struct {
	Devices    int
	Relays     int
	Rate       float64 // transactions per second, below the latency knee
	Link       time.Duration
	Fsync      time.Duration
	Difficulty int
	Payload    int
	Setups     int // cluster builds per run; setup_s is their median
}

func defaultIngest() ingestConfig {
	return ingestConfig{
		Devices:    32,
		Relays:     2,
		Rate:       300,
		Link:       5 * time.Millisecond,
		Fsync:      2 * time.Millisecond,
		Difficulty: 8,
		Payload:    64,
		Setups:     15,
	}
}

type ingestCluster struct {
	bus       *gossip.Bus
	gateway   *node.FullNode
	relays    []*node.FullNode
	relayPtrs []atomic.Pointer[node.FullNode]
	disks     []*tapFS // gateway first
	gwNet     *tapNet
	relayNets []*tapNet
	devs      []*device
	addrs     []identity.Address

	conf       *confirmer
	submitErrs atomic.Int64
	submitted  *submitLog // trace only
}

func (c *ingestCluster) close() {
	for _, r := range c.relays {
		closeNode(r)
	}
	closeNode(c.gateway)
	if c.bus != nil {
		_ = c.bus.Close()
	}
}

func buildIngest(ctx context.Context, cfg ingestConfig, rc runConfig) (*ingestCluster, error) {
	tr := rc.Tracer
	c := &ingestCluster{
		bus:       gossip.NewBus(),
		relayPtrs: make([]atomic.Pointer[node.FullNode], cfg.Relays),
		conf:      newConfirmer(),
	}
	if tr != nil {
		c.submitted = newSubmitLog()
	}
	c.bus.SetLatency(cfg.Link)
	mgrKey, err := keyFor(rc.Seed, "manager")
	if err != nil {
		return c, err
	}
	join := func(name string) (*tapNet, error) {
		peer, err := c.bus.Join(name)
		if err != nil {
			return nil, err
		}
		return &tapNet{Network: peer, tr: tr, counts: &netCounts{}}, nil
	}

	if c.gwNet, err = join("gateway"); err != nil {
		return c, err
	}
	if c.submitted != nil {
		c.gwNet.sent = func(msg gossip.Message, at time.Time) {
			for _, raw := range msg.TxData {
				if t, ok := c.submitted.take(hashutil.Sum(raw)); ok {
					tr.Observe("gossip.queue_wait_ms", ms(at.Sub(t)))
				}
			}
		}
	}
	gwDisk := &tapFS{FS: NewDisk(cfg.Fsync)}
	c.disks = append(c.disks, gwDisk)
	c.gateway, err = newNode(nodeSpec{key: mgrKey, managerPub: mgrKey.Public(), difficulty: cfg.Difficulty,
		seed: rc.Seed, net: c.gwNet, disk: gwDisk, journal: "gateway.journal"})
	if err != nil {
		return c, err
	}

	for i := 0; i < cfg.Relays; i++ {
		key, err := keyFor(rc.Seed, fmt.Sprintf("relay-%d", i))
		if err != nil {
			return c, err
		}
		net, err := join(fmt.Sprintf("relay-%d", i))
		if err != nil {
			return c, err
		}
		disk := &tapFS{FS: NewDisk(cfg.Fsync)}
		net.wrap = c.relayHandler(i, disk, tr)
		relay, err := newNode(nodeSpec{key: key, managerPub: mgrKey.Public(), difficulty: cfg.Difficulty,
			seed: rc.Seed + int64(i) + 1, net: net, disk: disk, journal: "relay.journal"})
		if err != nil {
			return c, err
		}
		c.relayPtrs[i].Store(relay)
		c.relays = append(c.relays, relay)
		c.relayNets = append(c.relayNets, net)
		c.disks = append(c.disks, disk)
	}

	keys := make([]*identity.KeyPair, cfg.Devices)
	for i := range keys {
		if keys[i], err = keyFor(rc.Seed, fmt.Sprintf("device-%d", i)); err != nil {
			return c, err
		}
		c.addrs = append(c.addrs, keys[i].Address())
	}
	if _, err := authorize(ctx, c.gateway, keys); err != nil {
		return c, err
	}
	for _, k := range keys {
		gw := &devGateway{inner: c.gateway, tr: tr, submitErrs: &c.submitErrs, submitted: c.submitted}
		light, err := node.NewLight(node.LightConfig{Key: k, Gateway: gw})
		if err != nil {
			return c, err
		}
		c.devs = append(c.devs, &device{light: light, gw: gw})
	}
	return c, nil
}

// relayHandler wraps relay i's gossip handler: after each transaction
// datagram it confirms every carried transaction the relay now holds,
// which is when the transaction became attached there. Traced runs also
// time the handler, and its self time net of the relay's own fsyncs.
func (c *ingestCluster) relayHandler(i int, disk *tapFS, tr *Tracer) func(gossip.Handler) gossip.Handler {
	return func(h gossip.Handler) gossip.Handler {
		return gossip.HandlerFunc(func(from string, msg gossip.Message) (*gossip.Message, error) {
			if msg.Type != gossip.MsgTransaction {
				return h.HandleGossip(from, msg)
			}
			busy := disk.Stats().Busy
			start := time.Now()
			reply, err := h.HandleGossip(from, msg)
			end := time.Now()
			relay := c.relayPtrs[i].Load()
			for _, raw := range msg.TxData {
				if id := hashutil.Sum(raw); relay.Tangle().Contains(id) {
					c.conf.confirm(id, i, end)
				}
			}
			if tr != nil {
				tr.Record(tr.NewID(), 0, "relay.handle", start, end)
				tr.Observe("relay.handle_self_ms", ms(end.Sub(start)-(disk.Stats().Busy-busy)))
			}
			return reply, err
		})
	}
}

// confirmer tracks each acknowledged transaction until every relay
// holds it. A relay may attach a transaction before its device's
// goroutine records the acknowledgement, so confirmations for unknown
// IDs are kept until the ack arrives.
type confirmer struct {
	mu  sync.Mutex
	txs map[hashutil.Hash]*flight
}

type flight struct {
	scheduled time.Time
	acked     bool
	relays    uint32    // bit i: relay i holds it
	last      time.Time // when the last relay attached it
}

func newConfirmer() *confirmer {
	return &confirmer{txs: make(map[hashutil.Hash]*flight)}
}

func (c *confirmer) get(id hashutil.Hash) *flight {
	f := c.txs[id]
	if f == nil {
		f = &flight{}
		c.txs[id] = f
	}
	return f
}

func (c *confirmer) confirm(id hashutil.Hash, relay int, at time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.get(id)
	if f.relays&(1<<relay) != 0 {
		return
	}
	f.relays |= 1 << relay
	if at.After(f.last) {
		f.last = at
	}
}

func (c *confirmer) ack(id hashutil.Hash, scheduled time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.get(id)
	f.scheduled, f.acked = scheduled, true
}

func runIngest(ctx context.Context, cfg ingestConfig, rc runConfig) (*phase, error) {
	p := newPhase()
	c, setup, err := setUp(cfg.Setups, func() (*ingestCluster, error) { return buildIngest(ctx, cfg, rc) },
		(*ingestCluster).close)
	if err != nil {
		return nil, fmt.Errorf("ingest setup: %w", err)
	}
	defer c.close()
	p.e2e["setup_s"] = setup

	tr := rc.Tracer
	count := int(cfg.Rate * rc.Window.Seconds())
	payload := payloadFor(rc.Seed, "reading", cfg.Payload)
	ack := make([]float64, count)
	post := make([]float64, count)
	disks0 := c.diskStats()
	u0 := readUsage()
	gen, err := loadgen.Run(ctx, loadgen.Config{Rate: cfg.Rate, Count: count, MaxInFlight: 256},
		func(i int, scheduled time.Time) error {
			d := c.devs[i%len(c.devs)]
			d.mu.Lock()
			op := tr.NewID()
			d.gw.op = op
			start := time.Now()
			sub, err := d.light.PostReading(ctx, payload)
			end := time.Now()
			d.mu.Unlock()
			tr.Record(op, 0, "device.post", start, end)
			if err != nil {
				return err
			}
			ack[i] = ms(end.Sub(scheduled))
			post[i] = ms(end.Sub(start))
			c.conf.ack(sub.Info.ID, scheduled)
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("ingest load: %w", err)
	}
	if err := c.gateway.FlushBroadcast(ctx); err != nil {
		return nil, fmt.Errorf("ingest drain: %w", err)
	}
	win := since(u0)
	disks := c.diskStats().sub(disks0)

	// Every acknowledged transaction must be on every relay. One that a
	// relay attached outside the datagram path (an orphan sync) counts
	// as confirmed now, which only overstates its latency.
	var acks, e2e []float64
	var ackAt, e2eAt []time.Duration // scheduled, from the first
	acked, late := 0, 0
	t0 := gen.Samples[0].Scheduled
	for i, s := range gen.Samples {
		if s.Err == nil {
			acks = append(acks, ack[i])
			ackAt = append(ackAt, s.Scheduled.Sub(t0))
		}
	}
	now := time.Now()
	c.conf.mu.Lock()
	for id, f := range c.conf.txs {
		if !f.acked {
			continue
		}
		acked++
		for r, relay := range c.relays {
			if f.relays&(1<<r) != 0 {
				continue
			}
			if !relay.Tangle().Contains(id) {
				p.problem("acknowledged %s missing on relay %d", id.Short(), r)
				continue
			}
			f.relays |= 1 << r
			f.last = now
			late++
		}
		e2e = append(e2e, ms(f.last.Sub(f.scheduled)))
		e2eAt = append(e2eAt, f.scheduled.Sub(t0))
	}
	c.conf.mu.Unlock()
	p.attempted = count
	p.failed = gen.Failed
	failures(p, gen)
	if acked != len(acks) {
		p.problem("%d acknowledgements but %d acknowledged transactions", len(acks), acked)
	}
	checkCredit(p, append([]*node.FullNode{c.gateway}, c.relays...), c.addrs)
	checkRejects(p, c.gateway, c.relays, c.submitErrs.Load())

	p.e2e["ack_p50_ms"] = slicedQuantile(ackAt, acks, 0.5)
	p.e2e["ack_p90_ms"] = slicedQuantile(ackAt, acks, 0.9)
	p.e2e["e2e_p50_ms"] = slicedQuantile(e2eAt, e2e, 0.5)
	p.e2e["e2e_p90_ms"] = slicedQuantile(e2eAt, e2e, 0.9)
	p.e2e["cpu_ms_per_tx"] = ratio(ms(win.cpu), float64(acked))
	p.e2e["heap_live_mib"] = liveHeapMiB()

	resident := c.gateway.Tangle().Size()
	for _, r := range c.relays {
		resident += r.Tangle().Size()
	}
	l := p.layer
	l["tail.ack_p99_ms"] = quantile(acks, 0.99)
	l["tail.e2e_p99_ms"] = quantile(e2e, 0.99)
	lateness(p, gen)
	l["loadgen.acked_frac"] = ratio(float64(acked), float64(count))
	l["loadgen.late_confirms"] = float64(late)
	l["node.retries_per_ktx"] = ratio(float64(c.submitErrs.Load())*1000, float64(acked))
	storeLayer(p, disks, len(c.disks), acked, win.wall)
	l["heap.kib_per_resident_tx"] = ratio(p.e2e["heap_live_mib"]*1024, float64(resident))
	runtimeLayer(p, win, acked)

	sent := c.gwNet.counts
	l["gossip.tx_per_datagram"] = ratio(float64(sent.txs.Load()), float64(sent.datagrams.Load()))
	l["gossip.datagrams_per_tx"] = ratio(float64(sent.datagrams.Load()), float64(acked))
	l["gossip.bytes_per_tx"] = ratio(float64(sent.bytes.Load()), float64(acked))
	var pages, synced int64
	for _, n := range c.relayNets {
		pages += n.counts.syncPages.Load()
		synced += n.counts.syncTxs.Load()
	}
	l["gossip.sync_pages"] = float64(pages)
	l["relay.sync_tx_per_page"] = ratio(float64(synced), float64(pages))
	l["relay.verify_batch_mean"] = verifyBatchMean(c.relays)
	if tr != nil {
		deviceLayer(p, tr, c.devs, post, gen)
		l["gossip.queue_wait_ms_p50"] = quantile(tr.Series("gossip.queue_wait_ms"), 0.5)
		l["relay.handle_ms_p50"] = quantile(tr.Durations("relay.handle"), 0.5)
		l["relay.handle_self_ms_p50"] = quantile(tr.Series("relay.handle_self_ms"), 0.5)
	}
	return p, nil
}

func (c *ingestCluster) diskStats() DiskStats {
	var s DiskStats
	for _, d := range c.disks {
		s = s.add(d.Stats())
	}
	return s
}
