package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/b-iot/biot/internal/gossip"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
	"github.com/b-iot/biot/internal/node"
	"github.com/b-iot/biot/internal/tangle"
	"github.com/b-iot/biot/internal/txn"
)

// The seams below wrap the public interfaces the program already
// exposes — node.Gateway, gossip.Network and its Handler, chaos.FS (see
// Disk) and the rpc server's http.Handler — and time each call from
// outside. None of them changes what the wrapped call does.

// devGateway is one device's node.Gateway. The device's owner runs one
// operation at a time and sets op to that operation's span before it
// calls into the light node, so every gateway call knows its parent.
type devGateway struct {
	inner node.Gateway
	tr    *Tracer

	op   uint64 // span of the device operation in progress
	call uint64 // span of the gateway call in progress, parent of its RPC

	submitErrs *atomic.Int64 // refused submissions the light node retries
	submitted  *submitLog    // trace only: when each Submit returned
}

var _ node.Gateway = (*devGateway)(nil)

func (g *devGateway) begin() time.Time {
	g.call = g.tr.NewID()
	return time.Now()
}

func (g *devGateway) end(name string, start time.Time) {
	g.tr.Record(g.call, g.op, name, start, time.Now())
	g.call = 0
}

func (g *devGateway) TipsForApproval() (hashutil.Hash, hashutil.Hash, error) {
	start := g.begin()
	trunk, branch, err := g.inner.TipsForApproval()
	g.end("gw.tips", start)
	return trunk, branch, err
}

func (g *devGateway) DifficultyFor(addr identity.Address) int {
	start := g.begin()
	d := g.inner.DifficultyFor(addr)
	g.end("gw.difficulty", start)
	return d
}

func (g *devGateway) GetTransaction(id hashutil.Hash) (*txn.Transaction, error) {
	start := g.begin()
	t, err := g.inner.GetTransaction(id)
	g.end("gw.get", start)
	return t, err
}

func (g *devGateway) Submit(ctx context.Context, t *txn.Transaction) (tangle.Info, error) {
	start := g.begin()
	info, err := g.inner.Submit(ctx, t)
	if retried(err) {
		g.submitErrs.Add(1)
	} else if err == nil && g.submitted != nil {
		g.submitted.put(info.ID, time.Now())
	}
	g.end("gw.submit", start)
	return info, err
}

func (g *devGateway) TransactionsByKind(kind txn.Kind, offset int) ([]*txn.Transaction, error) {
	start := g.begin()
	txs, err := g.inner.TransactionsByKind(kind, offset)
	g.end("gw.list", start)
	return txs, err
}

// retried reports whether the light node re-mines after this Submit
// error rather than failing the operation: a difficulty shift, a tip
// re-org or a saturated broadcast queue.
func retried(err error) bool {
	return errors.Is(err, node.ErrWrongDifficulty) || errors.Is(err, tangle.ErrUnknownParent) ||
		errors.Is(err, node.ErrBroadcastBacklog)
}

// submitLog remembers when each admitted transaction's Submit returned,
// so the first datagram carrying it can be charged its queue wait.
type submitLog struct {
	mu sync.Mutex
	at map[hashutil.Hash]time.Time
}

func newSubmitLog() *submitLog { return &submitLog{at: make(map[hashutil.Hash]time.Time)} }

func (s *submitLog) put(id hashutil.Hash, at time.Time) {
	s.mu.Lock()
	s.at[id] = at
	s.mu.Unlock()
}

// take returns and forgets id's Submit return time.
func (s *submitLog) take(id hashutil.Hash) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	at, ok := s.at[id]
	delete(s.at, id)
	return at, ok
}

// netCounts is what a tapNet saw leave through it.
type netCounts struct {
	datagrams atomic.Int64 // MsgTransaction requests and broadcasts
	txs       atomic.Int64 // transactions they carried
	bytes     atomic.Int64 // encoded transaction bytes they carried
	syncPages atomic.Int64 // sync requests answered
	syncTxs   atomic.Int64 // transactions in those answers
}

// tapNet wraps one node's gossip.Network. It counts outbound datagrams
// and sync pages, times requests, and wraps the inbound handler the node
// installs.
type tapNet struct {
	gossip.Network
	tr     *Tracer
	counts *netCounts

	// wrap, when set, wraps the handler the node installs.
	wrap func(gossip.Handler) gossip.Handler
	// sent, when set, learns of each outbound MsgTransaction datagram
	// before it leaves.
	sent func(msg gossip.Message, at time.Time)
	// synced, when set, learns of each answered sync request.
	synced func(start, end time.Time, reply gossip.Message)
}

func (n *tapNet) SetHandler(h gossip.Handler) {
	if n.wrap != nil {
		h = n.wrap(h)
	}
	n.Network.SetHandler(h)
}

func (n *tapNet) countDatagram(msg gossip.Message) {
	if msg.Type != gossip.MsgTransaction {
		return
	}
	n.counts.datagrams.Add(1)
	n.counts.txs.Add(int64(len(msg.TxData)))
	var b int
	for _, raw := range msg.TxData {
		b += len(raw)
	}
	n.counts.bytes.Add(int64(b))
	if n.sent != nil {
		n.sent(msg, time.Now())
	}
}

func (n *tapNet) Broadcast(ctx context.Context, msg gossip.Message) error {
	n.countDatagram(msg)
	return n.Network.Broadcast(ctx, msg)
}

func (n *tapNet) Request(ctx context.Context, peer string, msg gossip.Message) (gossip.Message, error) {
	n.countDatagram(msg)
	id := n.tr.NewID()
	start := time.Now()
	reply, err := n.Network.Request(ctx, peer, msg)
	end := time.Now()
	n.tr.Record(id, 0, "gossip.request."+msg.Type.String(), start, end)
	if err == nil && msg.Type == gossip.MsgSyncRequest {
		n.counts.syncPages.Add(1)
		n.counts.syncTxs.Add(int64(len(reply.TxData)))
		if n.synced != nil {
			n.synced(start, end, reply)
		}
	}
	return reply, err
}

// spanHeader carries the client span's ID to the server middleware, so
// the server span is the client span's child.
const spanHeader = "X-Perfbench-Span"

// route names an rpc endpoint for per-route metrics.
func route(method, path string) string {
	p := strings.TrimPrefix(path, "/api/v1/")
	switch {
	case p == "transactions" && method == http.MethodPost:
		return "submit"
	case p == "transactions":
		return "list"
	case strings.HasPrefix(p, "transactions/"):
		return "tx"
	default:
		return p
	}
}

// rpcRoutes are the endpoints the device-rpc workload calls.
var rpcRoutes = []string{"tips", "tx", "difficulty", "credit", "list", "submit"}

// traceServer times every request the rpc server handles.
func traceServer(h http.Handler, tr *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		h.ServeHTTP(w, r)
		tr.Record(tr.NewID(), parent, "rpc.server."+route(r.Method, r.URL.Path), start, time.Now())
	})
}

// tracedTransport times one device's HTTP calls from request to the
// response body's close, i.e. including the client's decode.
type tracedTransport struct {
	base   http.RoundTripper
	tr     *Tracer
	parent func() uint64
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.tr.NewID()
	parent := t.parent()
	name := "rpc.client." + route(req.Method, req.URL.Path)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.Record(id, parent, name, start, time.Now())
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		t.tr.Record(id, parent, name, start, time.Now())
	}}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}
