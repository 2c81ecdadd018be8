package client

import (
	"errors"
	"maps"
	"sync"
	"sync/atomic"
	"time"
)

// Router resolves a key to a server address (cluster.RoutingTable fits).
type Router interface {
	AddrFor(key string) string
}

// maxRedirects bounds how many times one logical operation follows
// MOVED redirects or retries through a topology refresh before
// surfacing the last error.
const maxRedirects = 4

// refreshMinInterval rate-limits routing-table refetches: a thundering
// herd of redirected callers collapses into one refresh per interval.
const refreshMinInterval = 50 * time.Millisecond

// Routed is a cluster-aware client: one multiplexed connection per node,
// commands routed by key. It mirrors "TierBase clients ... retrieve
// cluster routing information from the coordinator cluster for direct
// data access". Every caller routing to the same node shares that node's
// mux, so concurrent single-key traffic coalesces per node exactly as it
// does on a plain Client. Dials happen outside the routing lock with
// per-address singleflight: while one node is unreachable, only callers
// of that node wait on the dial — routing to healthy nodes never blocks.
//
// Redirect handling is typed (errors.As, no reply-text sniffing): a
// *MovedError triggers a routing refresh (when the Router supports it)
// and a follow to the named address; a *ConnError (node died
// mid-traffic) refreshes and re-routes. Plain server errors (WRONGTYPE,
// -ASK, ...) surface immediately.
type Routed struct {
	router Router
	mu     sync.Mutex
	conns  map[string]*Client
	dials  map[string]*dialFlight
	closed bool

	// refreshFn refetches routing state (set by NewCluster; nil for a
	// static Router). refreshMu serializes refreshes; lastRefresh
	// rate-limits them.
	refreshFn   func() error
	refreshMu   sync.Mutex
	lastRefresh time.Time
}

// dialFlight is the per-address singleflight state: the first caller
// needing an address dials with rc.mu released; later callers of the
// same address wait on done and share the outcome.
type dialFlight struct {
	done chan struct{}
	c    *Client
	err  error
}

// NewRouted builds a routed client over a Router.
func NewRouted(router Router) *Routed {
	return &Routed{
		router: router,
		conns:  make(map[string]*Client),
		dials:  make(map[string]*dialFlight),
	}
}

// clientForAddr returns the live mux for addr, dialing if needed. A
// cached client whose connection went sticky-broken is dropped and
// redialed, so one failed node round trip doesn't poison the address
// forever. Dial errors are not cached: each new round of callers retries.
func (rc *Routed) clientForAddr(addr string) (*Client, error) {
	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		return nil, ErrClosed
	}
	if c, ok := rc.conns[addr]; ok {
		if c.Err() == nil {
			rc.mu.Unlock()
			return c, nil
		}
		delete(rc.conns, addr) // broken: fall through to redial
	}
	if d, ok := rc.dials[addr]; ok {
		rc.mu.Unlock()
		<-d.done
		return d.c, d.err
	}
	d := &dialFlight{done: make(chan struct{})}
	rc.dials[addr] = d
	rc.mu.Unlock()

	c, err := Dial(addr)
	rc.mu.Lock()
	delete(rc.dials, addr)
	closedUnderUs := rc.closed
	if err == nil && !closedUnderUs {
		rc.conns[addr] = c
	}
	rc.mu.Unlock()
	if err == nil && closedUnderUs {
		c.Close()
		c, err = nil, ErrClosed
	}
	d.c, d.err = c, err
	close(d.done)
	return c, err
}

// Refresh refetches the routing table immediately (no rate limit).
// No-op for a static Router.
func (rc *Routed) Refresh() error {
	if rc.refreshFn == nil {
		return nil
	}
	rc.refreshMu.Lock()
	defer rc.refreshMu.Unlock()
	err := rc.refreshFn()
	if err == nil {
		rc.lastRefresh = time.Now()
	}
	return err
}

// maybeRefresh refetches the routing table unless one landed within
// refreshMinInterval (redirect storms collapse into one fetch).
func (rc *Routed) maybeRefresh() {
	if rc.refreshFn == nil {
		return
	}
	rc.refreshMu.Lock()
	defer rc.refreshMu.Unlock()
	if time.Since(rc.lastRefresh) < refreshMinInterval {
		return
	}
	if err := rc.refreshFn(); err == nil {
		rc.lastRefresh = time.Now()
	}
}

// errNoNode is a key the routing table has no owner for.
var errNoNode = errors.New("client: no node for key")

// retry is the one redirect-and-retry loop. op runs against addr when the
// previous attempt was redirected there, and routes by the table when addr
// is empty. Every *MovedError refreshes the table; follow says whether its
// address is followed: a single-key operation goes where it points, a batch
// has no one address to go to, so the next attempt re-splits by the
// refreshed table. A transport failure refreshes and re-routes, an
// overload rejection retries the same route after a backoff, and any other
// error surfaces.
func (rc *Routed) retry(follow bool, op func(addr string) error) error {
	addr := ""
	var lastErr error
	for attempt := 0; attempt <= maxRedirects; attempt++ {
		if attempt > 0 && addr == "" {
			// Re-routing after a transient failure: give a promotion in
			// progress a beat before hammering the same (stale) address.
			time.Sleep(time.Duration(attempt) * 20 * time.Millisecond)
		}
		err := op(addr)
		if err == nil || err == Nil {
			return err
		}
		redirect := ""
		var mv *MovedError
		switch {
		case errors.As(err, &mv):
			rc.maybeRefresh()
			redirect = mv.Addr
		case isTransient(err):
			rc.maybeRefresh()
		case isOverloaded(err):
			// Watermark shedding is node-local and self-healing (the
			// server resumes writes once memory drains below its low
			// watermark): back off harder than a redirect and retry the
			// same route — no topology refresh, the table is not stale.
			time.Sleep(overloadBackoff(attempt))
		default:
			return err
		}
		addr = ""
		if follow {
			addr = redirect
		}
		lastErr = err
	}
	return lastErr
}

// overloadBackoff is the wait before retrying a write the server shed at
// its memory watermark (or a connection refused at the admission cap):
// linear growth from 50ms, long enough for at least one server-side
// watermark sample between attempts.
func overloadBackoff(attempt int) time.Duration {
	return time.Duration(attempt+1) * 50 * time.Millisecond
}

// isOverloaded reports whether err is a server-side overload rejection —
// retryable against the same node after a backoff, with no topology
// refresh.
func isOverloaded(err error) bool {
	var ov *OverloadedError
	var mc *MaxConnError
	return errors.As(err, &ov) || errors.As(err, &mc)
}

// doRouted runs one single-key operation against the node that owns key,
// following redirects.
func (rc *Routed) doRouted(key string, fn func(c *Client) error) error {
	return rc.retry(true, func(addr string) error {
		if addr == "" {
			if addr = rc.router.AddrFor(key); addr == "" {
				return errNoNode
			}
		}
		c, err := rc.clientForAddr(addr)
		if err != nil {
			return err
		}
		return fn(c)
	})
}

// fanOut is one attempt at a batch: keys group by owning node, do runs once
// per node on that node's keys, all nodes in parallel, and the first error
// is the batch's. do merges its own result, under its own lock.
func (rc *Routed) fanOut(keys []string, do func(c *Client, nodeKeys []string) error) error {
	// Route every key before spawning anything: returning mid-iteration
	// would orphan per-node goroutines already in flight.
	groups := make(map[string][]string)
	for _, k := range keys {
		addr := rc.router.AddrFor(k)
		if addr == "" {
			return errNoNode
		}
		groups[addr] = append(groups[addr], k)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	for addr, nodeKeys := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := rc.clientForAddr(addr)
			if err == nil {
				err = do(c, nodeKeys)
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Set routes a SET by key, following redirects.
func (rc *Routed) Set(key, val string) error {
	return rc.doRouted(key, func(c *Client) error {
		return c.Set(key, val)
	})
}

// Get routes a GET by key, following redirects.
func (rc *Routed) Get(key string) (string, error) {
	var out string
	err := rc.doRouted(key, func(c *Client) error {
		v, err := c.Get(key)
		out = v
		return err
	})
	return out, err
}

// MGet fetches many keys across the cluster: keys group by owning node,
// each node receives one MGET, and the node round trips run in parallel.
// Absent keys are omitted from the result. Redirects and node failures
// re-split the batch against a refreshed table.
func (rc *Routed) MGet(keys ...string) (map[string]string, error) {
	var out map[string]string
	err := rc.retry(false, func(string) error {
		out = make(map[string]string, len(keys))
		var mu sync.Mutex
		return rc.fanOut(keys, func(c *Client, nodeKeys []string) error {
			got, err := c.MGet(nodeKeys...)
			mu.Lock()
			defer mu.Unlock()
			maps.Copy(out, got)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MSet stores many pairs across the cluster: pairs group by owning node,
// one MSET per node, node round trips in parallel. Redirects and node
// failures re-split the batch against a refreshed table.
func (rc *Routed) MSet(pairs map[string]string) error {
	keys := make([]string, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	return rc.retry(false, func(string) error {
		return rc.fanOut(keys, func(c *Client, nodeKeys []string) error {
			sub := make(map[string]string, len(nodeKeys))
			for _, k := range nodeKeys {
				sub[k] = pairs[k]
			}
			return c.MSet(sub)
		})
	})
}

// Del removes keys across the cluster: keys group by owning node, each
// node receives one DEL, node round trips run in parallel, and the
// deleted counts sum. Redirects and node failures re-split the batch
// against a refreshed table.
func (rc *Routed) Del(keys ...string) (int64, error) {
	var total atomic.Int64
	err := rc.retry(false, func(string) error {
		total.Store(0)
		return rc.fanOut(keys, func(c *Client, nodeKeys []string) error {
			n, err := c.Del(nodeKeys...)
			total.Add(n)
			return err
		})
	})
	if err != nil {
		return 0, err
	}
	return total.Load(), nil
}

// Close closes all node connections. Dials still in flight complete and
// are closed on arrival; callers waiting on them get ErrClosed.
func (rc *Routed) Close() error {
	rc.mu.Lock()
	rc.closed = true
	conns := rc.conns
	rc.conns = map[string]*Client{}
	rc.mu.Unlock()
	var first error
	for _, c := range conns {
		if err := c.Close(); err != nil && err != ErrClosed && first == nil {
			first = err
		}
	}
	return first
}
