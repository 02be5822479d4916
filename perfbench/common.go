package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/b-iot/biot/internal/chaos"
	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/core"
	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/loadgen"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/pow"
	"github.com/b-iot/biot/internal/tangle"
)

// runConfig is what every workload receives from the command line.
type runConfig struct {
	Seed   int64
	Window time.Duration
	Tracer *Tracer // nil: untraced run
}

// phase is one workload run's outcome: the end-to-end metrics by name,
// the per-layer metrics by name, and what its checks found.
type phase struct {
	attempted int
	failed    int
	problems  []string
	e2e       map[string]float64
	layer     map[string]float64
}

func newPhase() *phase {
	return &phase{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

func (p *phase) problem(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// keyFor derives a deterministic account from the run seed and a label.
func keyFor(seed int64, label string) (*identity.KeyPair, error) {
	h := sha256.Sum256([]byte(fmt.Sprintf("perfbench/%d/%s", seed, label)))
	return identity.FromSeed(h[:identity.SeedSize])
}

// payloadFor is a deterministic sensor reading of n bytes.
func payloadFor(seed int64, label string, n int) []byte {
	out := make([]byte, 0, n)
	for i := 0; len(out) < n; i++ {
		h := sha256.Sum256([]byte(fmt.Sprintf("perfbench/%d/%s/%d", seed, label, i)))
		out = append(out, h[:]...)
	}
	return out[:n]
}

// staticParams fixes PoW difficulty, like the paper's Fig 9 "original
// PoW" control: every transaction costs the same expected work in every
// run, while core still evaluates credit on every submission.
func staticParams(difficulty int) (core.Params, core.DifficultyPolicy) {
	p := core.DefaultParams()
	p.InitialDifficulty = difficulty
	p.MinDifficulty = 1
	p.MaxDifficulty = pow.MaxDifficulty
	return p, core.StaticPolicy{Difficulty: difficulty}
}

func tangleConfig(seed int64) tangle.Config {
	c := tangle.DefaultConfig()
	c.Seed = seed
	return c
}

// nodeSpec builds one full node.
type nodeSpec struct {
	key        *identity.KeyPair
	managerPub identity.PublicKey
	difficulty int
	seed       int64
	net        gossip.Network
	disk       chaos.FS // nil: no journal
	journal    string
	clock      clock.Clock // nil: the real clock
}

func newNode(s nodeSpec) (*node.FullNode, error) {
	params, policy := staticParams(s.difficulty)
	role := identity.RoleGateway
	if s.key.Address() == identity.AddressOf(s.managerPub) {
		role = identity.RoleManager
	}
	n, err := node.NewFull(node.FullConfig{
		Key:        s.key,
		Role:       role,
		ManagerPub: s.managerPub,
		Tangle:     tangleConfig(s.seed),
		Credit:     params,
		Policy:     policy,
		Network:    s.net,
		Clock:      s.clock,
	})
	if err != nil {
		return nil, err
	}
	if s.disk != nil {
		if _, err := n.EnablePersistenceFS(s.disk, s.journal); err != nil {
			n.Close()
			return nil, err
		}
	}
	return n, nil
}

// closeNode stops a node and its journal.
func closeNode(n *node.FullNode) {
	if n == nil {
		return
	}
	_ = n.ClosePersistence() // ErrNotPersistent for memory-only nodes
	_ = n.Close()
}

// device is one light node and its bookkeeping. A device does one thing
// at a time: every operation holds mu.
type device struct {
	mu    sync.Mutex
	light *node.LightNode
	gw    *devGateway

	listOffset int           // next TransactionsByKind offset (device-rpc)
	lastTx     hashutil.Hash // last acknowledged transaction
}

// authorize registers every device key with the manager and publishes
// the list; it returns the list transaction's ID.
func authorize(ctx context.Context, manager *node.FullNode, keys []*identity.KeyPair) (hashutil.Hash, error) {
	mgr, err := node.NewManager(manager)
	if err != nil {
		return hashutil.Hash{}, err
	}
	for _, k := range keys {
		mgr.AuthorizeDevice(k.Public(), k.BoxPublic())
	}
	res, err := mgr.PublishAuthorization(ctx)
	if err != nil {
		return hashutil.Hash{}, err
	}
	return res.Info.ID, nil
}

// checkCredit compares each node's incremental credit evaluation with
// its from-scratch RescanCredit oracle for every device.
func checkCredit(p *phase, nodes []*node.FullNode, addrs []identity.Address) {
	const eps = 1e-9
	for i, n := range nodes {
		ledger := n.Engine().Ledger()
		now := n.Clock().Now()
		for _, a := range addrs {
			got, want := ledger.CreditOf(a, now), ledger.RescanCredit(a, now)
			for _, pair := range [][2]float64{{got.CrP, want.CrP}, {got.CrN, want.CrN}, {got.Cr, want.Cr}} {
				if math.Abs(pair[0]-pair[1]) > eps*(1+math.Abs(pair[1])) {
					p.problem("node %d: credit of %s is %v, RescanCredit says %v", i, a.Hex()[:8], got, want)
					return
				}
			}
		}
	}
}

// rejects sums a node's admission reject counters.
func rejects(n *node.FullNode) int64 {
	c := n.CountersView()
	return c.Rejected.Value() + c.Unauthorized.Value() + c.RateLimited.Value() +
		c.StaleAuthRejects.Value() + c.QuarantineDrops.Value() + c.JournalErrors.Value()
}

// failures raises a problem when an operation failed: the workloads
// run below the latency knee, where every operation succeeds.
func failures(p *phase, gen loadgen.Result) {
	for _, s := range gen.Samples {
		if s.Err != nil {
			p.problem("%d of %d operations failed, the first with: %v", gen.Failed, len(gen.Samples), s.Err)
			return
		}
	}
}

// checkRejects: the gateway may refuse only the submissions the light
// nodes retried (see retried), and a relay refuses nothing. A relay's
// Rejected counter also counts the first attach attempt of an orphan, a
// transaction that overtook its parent on the wire; the relay attaches
// it after one sync with the sender, so each orphan sync may account for
// up to one datagram of those.
func checkRejects(p *phase, gateway *node.FullNode, relays []*node.FullNode, retried int64) {
	if r := rejects(gateway); r > retried {
		p.problem("gateway rejected %d submissions, devices retried %d", r, retried)
	}
	for i, r := range relays {
		c := r.CountersView()
		orphans := r.Pipeline().OrphanSyncs.Value()
		if hard := rejects(r) - c.Rejected.Value(); hard != 0 || c.Rejected.Value() > orphans*maxDatagramTxs {
			p.problem("relay %d refused transactions: rejected %d after %d orphan syncs, unauthorized %d, stale-auth %d, quarantine drops %d, journal errors %d",
				i, c.Rejected.Value(), orphans, c.Unauthorized.Value(), c.StaleAuthRejects.Value(),
				c.QuarantineDrops.Value(), c.JournalErrors.Value())
		}
	}
}

// maxDatagramTxs is the node's default broadcast batch: the most
// transactions one gossip datagram carries.
const maxDatagramTxs = 32

// settledGoroutines waits briefly for stopped nodes' goroutines to exit
// and returns the remaining count.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// setUp builds n times and keeps the last build; the median build time,
// in seconds, is the workload's setup_s. discard releases a build that
// is not kept, or one that failed part way.
func setUp[T any](n int, build func() (T, error), discard func(T)) (T, float64, error) {
	n = max(n, 1)
	var kept T
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		b, err := build()
		if err != nil {
			discard(b)
			return kept, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i < n-1 {
			discard(b)
			continue
		}
		kept = b
	}
	sort.Float64s(secs)
	return kept, secs[len(secs)/2], nil
}

// tapFS wraps a chaos.FS and counts what the journal does on it.
type tapFS struct {
	chaos.FS
	syncs   atomic.Int64
	busyNs  atomic.Int64
	written atomic.Int64
}

func (t *tapFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	f, err := t.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &tapFile{File: f, fs: t}, nil
}

func (t *tapFS) Stats() DiskStats {
	return DiskStats{Syncs: t.syncs.Load(), Busy: time.Duration(t.busyNs.Load()), Written: t.written.Load()}
}

type tapFile struct {
	chaos.File
	fs *tapFS
}

func (f *tapFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f *tapFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.busyNs.Add(int64(time.Since(start)))
	f.fs.syncs.Add(1)
	return err
}
