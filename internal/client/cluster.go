package client

import (
	"encoding/json"
	"fmt"
	"sync/atomic"

	"tierbase/internal/cluster"
)

// tableRouter is a Router backed by an atomically swapped routing table
// fetched from the coordinator (CLUSTER TABLE). Lookups are lock-free;
// a refresh publishes a whole new table in one pointer swap.
type tableRouter struct {
	table atomic.Pointer[cluster.RoutingTable]
}

func (tr *tableRouter) AddrFor(key string) string {
	return tr.table.Load().AddrFor(key)
}

// NewCluster builds a Routed client that discovers the cluster through a
// coordinator: it fetches the routing table (CLUSTER TABLE) at startup
// and refetches it whenever a node answers MOVED or becomes unreachable,
// so traffic follows a failover without restarting the client. The
// coordinator is dialed per refresh (refreshes are rare and this
// survives coordinator restarts).
func NewCluster(coordAddr string) (*Routed, error) {
	tr := &tableRouter{}
	rc := NewRouted(tr)
	rc.refreshFn = func() error {
		rt, err := fetchTable(coordAddr)
		if err != nil {
			return err
		}
		// Never regress: a stale fetch racing a newer one must not
		// un-publish a later epoch.
		if cur := tr.table.Load(); cur != nil && cur.Epoch > rt.Epoch {
			return nil
		}
		tr.table.Store(rt)
		return nil
	}
	if err := rc.Refresh(); err != nil {
		return nil, fmt.Errorf("client: initial routing fetch: %w", err)
	}
	return rc, nil
}

// fetchTable dials the coordinator and unmarshals CLUSTER TABLE.
func fetchTable(coordAddr string) (*cluster.RoutingTable, error) {
	c, err := Dial(coordAddr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	v, err := c.Do("CLUSTER", "TABLE")
	if err != nil {
		return nil, err
	}
	blob, ok := v.(string)
	if !ok {
		return nil, fmt.Errorf("client: unexpected CLUSTER TABLE reply %T", v)
	}
	rt := new(cluster.RoutingTable)
	if err := json.Unmarshal([]byte(blob), rt); err != nil {
		return nil, fmt.Errorf("client: bad routing table: %w", err)
	}
	return rt, nil
}
