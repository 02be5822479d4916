package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/loadgen"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/rpc"
	"github.com/b-iot/biot/internal/txn"
)

// rpcConfig is the single-node baseline as cmd/biot-device sees it:
// devices reach one gateway over loopback HTTP through rpc.Client, and
// every device session shares the gateway with reads.
type rpcConfig struct {
	Devices    int
	Rate       float64 // operations per second: sessions and reads together
	Reads      int     // reads per device session in the fixed mix
	Fsync      time.Duration
	Difficulty int
	Payload    int
	Setups     int
	Recover    recoverConfig // the phase a traced run ends with
}

func defaultDeviceRPC() rpcConfig {
	return rpcConfig{
		Devices:    32,
		Rate:       400,
		Reads:      4,
		Fsync:      2 * time.Millisecond,
		Difficulty: 8,
		Payload:    64,
		Setups:     15,
		Recover:    defaultRecover(),
	}
}

// The operations of the device-rpc mix.
type opKind int

const (
	opSession opKind = iota // tips, tip validation, difficulty, PoW, submit
	opCredit
	opTips
	opTx   // one transaction by ID
	opList // data transactions from the device's own offset
)

// rpcMix lays out count operations: each group of 1+reads holds one
// session and one of each read, in an order drawn from the seed.
func rpcMix(seed int64, count, reads int) []opKind {
	rng := rand.New(rand.NewSource(seed))
	group := []opKind{opSession, opCredit, opTips, opTx, opList}[:1+reads]
	out := make([]opKind, 0, count+len(group))
	for len(out) < count {
		g := append([]opKind(nil), group...)
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
		out = append(out, g...)
	}
	return out[:count]
}

type rpcCluster struct {
	gateway   *node.FullNode
	disk      *tapFS
	srv       *http.Server
	served    chan error
	transport *http.Transport
	clients   []*rpc.Client
	devs      []*device
	addrs     []identity.Address
	authID    hashutil.Hash

	submitErrs atomic.Int64
}

func (c *rpcCluster) close() {
	if c.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = c.srv.Shutdown(ctx) // Serve returns ErrServerClosed either way
		cancel()
		<-c.served
	}
	if c.transport != nil {
		c.transport.CloseIdleConnections()
	}
	closeNode(c.gateway)
}

func buildDeviceRPC(ctx context.Context, cfg rpcConfig, rc runConfig) (*rpcCluster, error) {
	tr := rc.Tracer
	c := &rpcCluster{disk: &tapFS{FS: NewDisk(cfg.Fsync)}}
	mgrKey, err := keyFor(rc.Seed, "manager")
	if err != nil {
		return c, err
	}
	c.gateway, err = newNode(nodeSpec{key: mgrKey, managerPub: mgrKey.Public(), difficulty: cfg.Difficulty,
		seed: rc.Seed, disk: c.disk, journal: "gateway.journal"})
	if err != nil {
		return c, err
	}
	keys := make([]*identity.KeyPair, cfg.Devices)
	for i := range keys {
		if keys[i], err = keyFor(rc.Seed, fmt.Sprintf("device-%d", i)); err != nil {
			return c, err
		}
		c.addrs = append(c.addrs, keys[i].Address())
	}
	if c.authID, err = authorize(ctx, c.gateway, keys); err != nil {
		return c, err
	}

	var handler http.Handler = rpc.NewServer(c.gateway).Handler()
	if tr != nil {
		handler = traceServer(handler, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return c, err
	}
	c.srv = &http.Server{Handler: handler}
	c.served = make(chan error, 1)
	go func() { c.served <- c.srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// One process, one transport, at most nproc connections.
	c.transport = &http.Transport{
		MaxConnsPerHost:     runtime.NumCPU(),
		MaxIdleConnsPerHost: runtime.NumCPU(),
		IdleConnTimeout:     time.Minute,
	}
	for _, k := range keys {
		gw := &devGateway{tr: tr, submitErrs: &c.submitErrs}
		var rt http.RoundTripper = c.transport
		if tr != nil {
			rt = &tracedTransport{base: c.transport, tr: tr, parent: func() uint64 { return gw.call }}
		}
		client := rpc.NewClient(base, rpc.WithHTTPClient(&http.Client{Transport: rt, Timeout: 30 * time.Second}))
		gw.inner = client
		light, err := node.NewLight(node.LightConfig{Key: k, Gateway: gw})
		if err != nil {
			return c, err
		}
		c.clients = append(c.clients, client)
		c.devs = append(c.devs, &device{light: light, gw: gw, lastTx: c.authID})
	}
	return c, nil
}

// runDeviceRPC runs the device-rpc load. A traced run then crashes a
// gateway and restarts it from a journal while a relay catches up (the
// recover phase, after the load's cluster has stopped). That phase
// supplies the replay, sync and relay layers, which the relay-less load
// leaves idle, and adds its records to attempted and failed.
func runDeviceRPC(ctx context.Context, cfg rpcConfig, rc runConfig) (*phase, error) {
	p, err := runDeviceLoad(ctx, cfg, rc)
	if err != nil || rc.Tracer == nil {
		return p, err
	}
	r, err := runRecover(ctx, cfg.Recover, rc)
	if err != nil {
		return nil, err
	}
	p.attempted += r.attempted
	p.failed += r.failed
	p.problems = append(p.problems, r.problems...)
	for name, v := range r.layer {
		p.layer[name] = v
	}
	return p, nil
}

func runDeviceLoad(ctx context.Context, cfg rpcConfig, rc runConfig) (*phase, error) {
	p := newPhase()
	c, setup, err := setUp(cfg.Setups, func() (*rpcCluster, error) { return buildDeviceRPC(ctx, cfg, rc) },
		(*rpcCluster).close)
	if err != nil {
		return nil, fmt.Errorf("device-rpc setup: %w", err)
	}
	defer c.close()
	p.e2e["setup_s"] = setup

	tr := rc.Tracer
	count := int(cfg.Rate * rc.Window.Seconds())
	mix := rpcMix(rc.Seed, count, cfg.Reads)
	payload := payloadFor(rc.Seed, "reading", cfg.Payload)
	lat := make([]float64, count)
	post := make([]float64, count)
	acked := make([]hashutil.Hash, count)
	disk0 := c.disk.Stats()
	u0 := readUsage()
	gen, err := loadgen.Run(ctx, loadgen.Config{Rate: cfg.Rate, Count: count, MaxInFlight: 256},
		func(i int, scheduled time.Time) error {
			di := i % len(c.devs)
			d := c.devs[di]
			d.mu.Lock()
			defer d.mu.Unlock()
			op := tr.NewID()
			d.gw.op, d.gw.call = op, op
			start := time.Now()
			err := c.do(ctx, mix[i], di, payload, &acked[i])
			end := time.Now()
			d.gw.call = 0
			tr.Record(op, 0, spanOf(mix[i]), start, end)
			if err != nil {
				return err
			}
			lat[i] = ms(end.Sub(scheduled))
			if mix[i] == opSession {
				post[i] = ms(end.Sub(start))
			}
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("device-rpc load: %w", err)
	}
	win := since(u0)
	disk := c.disk.Stats().sub(disk0)

	var acks, reads, all []float64
	var ackAt, allAt []time.Duration // scheduled, from the first
	for i, s := range gen.Samples {
		if s.Err != nil {
			continue
		}
		at := s.Scheduled.Sub(gen.Samples[0].Scheduled)
		all = append(all, lat[i])
		allAt = append(allAt, at)
		if mix[i] != opSession {
			reads = append(reads, lat[i])
			continue
		}
		acks = append(acks, lat[i])
		ackAt = append(ackAt, at)
		if !c.gateway.Tangle().Contains(acked[i]) {
			p.problem("acknowledged %s missing on the gateway", acked[i].Short())
		}
	}
	p.attempted = count
	p.failed = gen.Failed
	failures(p, gen)
	checkCredit(p, []*node.FullNode{c.gateway}, c.addrs)
	checkRejects(p, c.gateway, nil, c.submitErrs.Load())

	p.e2e["ack_p50_ms"] = slicedQuantile(ackAt, acks, 0.5)
	p.e2e["ack_p90_ms"] = slicedQuantile(ackAt, acks, 0.9)
	// Every operation ends at the single node: a session when the
	// gateway acknowledges it, a read when its answer arrives. Reads are
	// four in five of the mix, so the median is a read and p90 a session.
	p.e2e["e2e_p50_ms"] = slicedQuantile(allAt, all, 0.5)
	p.e2e["e2e_p90_ms"] = slicedQuantile(allAt, all, 0.9)
	p.e2e["cpu_ms_per_tx"] = ratio(ms(win.cpu), float64(len(acks)))
	p.e2e["heap_live_mib"] = liveHeapMiB()

	l := p.layer
	l["tail.ack_p99_ms"] = quantile(acks, 0.99)
	l["tail.e2e_p99_ms"] = quantile(all, 0.99)
	l["read.p50_ms"] = quantile(reads, 0.5)
	l["read.p90_ms"] = quantile(reads, 0.9)
	l["tail.read_p99_ms"] = quantile(reads, 0.99)
	lateness(p, gen)
	l["loadgen.acked_frac"] = ratio(float64(len(acks)), float64(count-len(reads)))
	l["node.retries_per_ktx"] = ratio(float64(c.submitErrs.Load())*1000, float64(len(acks)))
	storeLayer(p, disk, 1, len(acks), win.wall)
	l["heap.kib_per_resident_tx"] = ratio(p.e2e["heap_live_mib"]*1024, float64(c.gateway.Tangle().Size()))
	runtimeLayer(p, win, len(acks))
	if tr != nil {
		deviceLayer(p, tr, c.devs, post, gen)
		var self []float64
		for _, r := range rpcRoutes {
			self = append(self, tr.SelfTimes("rpc.client."+r)...)
			l["rpc.client_ms_p50."+r] = quantile(tr.Durations("rpc.client."+r), 0.5)
			l["rpc.server_ms_p50."+r] = quantile(tr.Durations("rpc.server."+r), 0.5)
		}
		l["rpc.self_ms_p50"] = quantile(self, 0.5)
	}
	return p, nil
}

func spanOf(k opKind) string {
	return [...]string{"device.post", "device.credit", "device.tips", "device.tx", "device.list"}[k]
}

// do runs one operation of the mix for device di.
func (c *rpcCluster) do(ctx context.Context, k opKind, di int, payload []byte, acked *hashutil.Hash) error {
	d, client := c.devs[di], c.clients[di]
	switch k {
	case opSession:
		sub, err := d.light.PostReading(ctx, payload)
		if err != nil {
			return err
		}
		d.lastTx, *acked = sub.Info.ID, sub.Info.ID
		return nil
	case opCredit:
		_, err := client.Credit(ctx, c.addrs[di])
		return err
	case opTips:
		_, _, err := client.TipsForApprovalCtx(ctx)
		return err
	case opTx:
		t, err := client.GetTransactionCtx(ctx, d.lastTx)
		if err == nil && t.ID() != d.lastTx {
			err = fmt.Errorf("read %s, got %s", d.lastTx.Short(), t.ID().Short())
		}
		return err
	case opList:
		page, err := client.TransactionsByKindCtx(ctx, txn.KindData, d.listOffset)
		d.listOffset += len(page)
		return err
	}
	return errors.New("unknown operation")
}
