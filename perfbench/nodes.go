package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"anonradio/internal/fleet"
	"anonradio/internal/server"
	"anonradio/internal/service"
)

// node is one in-process anonradiod: a registry behind the server's HTTP
// handler on a loopback listener.
type node struct {
	reg  *service.Registry
	hs   *http.Server
	url  string
	done chan error
}

// cluster is what one set-up boots: the nodes, the router in front of them
// when the workload is routed, and the client every benchmark goroutine
// shares.
type cluster struct {
	nodes  []*node
	router *http.Server
	rdone  chan error
	ring   *fleet.Ring
	client *fleet.Client
	byHost map[string]int // node listener address → node index
	conns  []*http.Transport
}

// serveOn starts h on a fresh loopback listener.
func serveOn(h http.Handler) (*http.Server, string, chan error, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(l) }()
	return hs, l.Addr().String(), done, nil
}

// boot starts len(regs) nodes over the given registries and, when routed,
// the fleet router in front of them. Every handler and the router's
// outgoing transport are wrapped by tr, which records spans only while
// tracing is switched on.
func boot(regs []*service.Registry, routed bool, tr *tracer) (*cluster, error) {
	c := &cluster{byHost: make(map[string]int)}
	urls := make([]string, len(regs))
	for i, reg := range regs {
		srv := server.New(reg, server.Options{})
		hs, addr, done, err := serveOn(tr.handler(spanNode, i, srv.Handler()))
		if err != nil {
			c.close()
			return nil, err
		}
		n := &node{reg: reg, hs: hs, url: "http://" + addr, done: done}
		c.nodes = append(c.nodes, n)
		c.byHost[addr] = i
		urls[i] = n.url
	}
	front := urls[0]
	if routed {
		hop := &http.Transport{MaxIdleConnsPerHost: 4}
		c.conns = append(c.conns, hop)
		f, err := fleet.New(urls, fleet.ClientOptions{
			Binary: true,
			HTTP:   &http.Client{Transport: tr.transport(hop, c.byHost)},
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.ring = f.Ring()
		rt := fleet.NewRouter(f, fleet.RouterOptions{})
		hs, addr, done, err := serveOn(tr.handler(spanFront, -1, rt.Handler()))
		if err != nil {
			c.close()
			return nil, err
		}
		c.router, c.rdone, front = hs, done, "http://"+addr
	}
	// Both client goroutines share one transport capped at two
	// connections: the closed-loop clients of the workload.
	conns := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	c.conns = append(c.conns, conns)
	c.client = fleet.NewClient(front, fleet.ClientOptions{
		Binary:      true,
		HTTP:        &http.Client{Transport: conns},
		BusyRetries: 3,
	})
	return c, nil
}

// owner returns the index of the node that holds key.
func (c *cluster) owner(key string) int {
	if c.ring == nil {
		return 0
	}
	return c.byHost[c.ring.Owner(key)[len("http://"):]]
}

// close stops the router and every node's listener, waits for them, and
// closes the registries.
func (c *cluster) close() {
	stop := func(hs *http.Server, done chan error) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = hs.Shutdown(ctx) // a slow drain only delays teardown
		cancel()
		<-done
	}
	if c.router != nil {
		stop(c.router, c.rdone)
	}
	for _, n := range c.nodes {
		stop(n.hs, n.done)
		n.reg.Close()
	}
	for _, t := range c.conns {
		t.CloseIdleConnections()
	}
}

// Span kinds, one per layer boundary visible from outside the program.
const (
	spanClient = "client" // the benchmark's call into fleet.Client
	spanFront  = "router" // router handler
	spanHop    = "hop"    // router → node round trip
	spanNode   = "node"   // node handler
)

// span is one timed interval of one request; spans of a request share seq.
type span struct {
	Kind  string `json:"kind"`
	Node  int    `json:"node"`
	Seq   int64  `json:"seq"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// tracer collects spans in memory while on. The traced passes keep one
// request in flight, so the current sequence number names the
// request every wrapper sees.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	seq   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record keeps one span of request seq.
func (t *tracer) record(kind string, node int, seq int64, start, end time.Time) {
	s := span{Kind: kind, Node: node, Seq: seq, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// handler wraps h so that each request it serves while tracing is a span.
func (t *tracer) handler(kind string, node int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		// Read the sequence number first: the client may see the response,
		// and move on to its next request, before this handler returns.
		seq, start := t.seq.Load(), time.Now()
		h.ServeHTTP(w, r)
		t.record(kind, node, seq, start, time.Now())
	})
}

// transport wraps the router's outgoing transport: a hop span runs from
// the round trip's start until its response body is closed.
func (t *tracer) transport(rt http.RoundTripper, byHost map[string]int) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if !t.on.Load() {
			return rt.RoundTrip(req)
		}
		seq, start := t.seq.Load(), time.Now()
		resp, err := rt.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
			t.record(spanHop, byHost[req.URL.Host], seq, start, time.Now())
		}}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

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

// bySeq groups the collected spans per request.
func (t *tracer) bySeq() map[int64][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64][]span)
	for _, s := range t.spans {
		out[s.Seq] = append(out[s.Seq], s)
	}
	return out
}

// covered returns how much of [start, end) the union of spans covers.
func covered(spans []span, start, end int64) float64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, start), min(s.End, end)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	total += curB - curA
	return float64(total)
}
