package client

import (
	"errors"
	"maps"
	"sync"
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

// Routed is a cluster-aware client: one Client per node, commands routed
// by key. It mirrors "TierBase clients ... retrieve cluster routing
// information from the coordinator cluster for direct data access".
// Every caller routing to the same node shares that node's Client, and so
// takes turns on its connection. Every step runs on the caller's
// goroutine, and dials happen outside the routing lock: while one node is
// unreachable, only callers of that node wait on a dial — routing to
// healthy nodes never blocks.
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
	closed bool

	// refreshFn refetches routing state (set by NewCluster; nil for a
	// static Router). refreshMu serializes refreshes; lastRefresh
	// rate-limits them.
	refreshFn   func() error
	refreshMu   sync.Mutex
	lastRefresh time.Time
}

// NewRouted builds a routed client over a Router.
func NewRouted(router Router) *Routed {
	return &Routed{router: router, conns: make(map[string]*Client)}
}

// clientForAddr returns the live Client for addr, dialing if needed. A
// cached client whose connection went sticky-broken is replaced by a new
// dial, so one failed node round trip doesn't poison the address forever.
// Dial errors are not cached: each new caller retries. Callers that find
// no live client each dial; the first to store a live one wins, and the
// others close theirs and use it.
func (rc *Routed) clientForAddr(addr string) (*Client, error) {
	rc.mu.Lock()
	c, closed := rc.conns[addr], rc.closed
	rc.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if c != nil && c.Err() == nil {
		return c, nil
	}
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed {
		c.Close()
		return nil, ErrClosed
	}
	if old := rc.conns[addr]; old != nil && old.Err() == nil {
		c.Close()
		return old, nil
	}
	rc.conns[addr] = c
	return c, nil
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

// fanOut is one attempt at a batch: keys group by owning node, and do
// runs once per node on that node's keys, one node after another. The
// first error ends the attempt and is the batch's.
func (rc *Routed) fanOut(keys []string, do func(c *Client, nodeKeys []string) error) error {
	groups := make(map[string][]string)
	for _, k := range keys {
		addr := rc.router.AddrFor(k)
		if addr == "" {
			return errNoNode
		}
		groups[addr] = append(groups[addr], k)
	}
	for addr, nodeKeys := range groups {
		c, err := rc.clientForAddr(addr)
		if err == nil {
			err = do(c, nodeKeys)
		}
		if err != nil {
			return err
		}
	}
	return nil
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
// and each node receives one MGET. Absent keys are omitted from the
// result. Redirects and node failures re-split the batch against a
// refreshed table.
func (rc *Routed) MGet(keys ...string) (map[string]string, error) {
	var out map[string]string
	err := rc.retry(false, func(string) error {
		out = make(map[string]string, len(keys))
		return rc.fanOut(keys, func(c *Client, nodeKeys []string) error {
			got, err := c.MGet(nodeKeys...)
			maps.Copy(out, got)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Close closes all node connections. A dial still in flight is closed on
// arrival, and its caller gets ErrClosed.
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
