package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"strings"
	"sync"
	"time"

	"tierbase/internal/resp"
)

// CoordServer serves a Coordinator over RESP so live tierbase-server
// processes can register and heartbeat, clients can fetch the routing
// table, and a background failover loop can push promotions
// (`REPLICAOF NO ONE`) to the surviving processes.
//
// Commands:
//
//	PING
//	CLUSTER REGISTER <id> <addr> <master|replica> <masterAddr|->
//	CLUSTER HEARTBEAT <id>
//	CLUSTER DEREGISTER <id>
//	CLUSTER TABLE   -> bulk JSON of RoutingTable
//	CLUSTER EPOCH   -> :<epoch>
//	CLUSTER NODES   -> bulk text, one node per line
//
// The wire format is internal/resp, with limits sized for the commands
// above rather than for a data node's values.
type CoordServer struct {
	coord *Coordinator
	ln    net.Listener

	// CheckInterval is how often the failover loop scans heartbeats.
	checkInterval time.Duration

	// NotifyTimeout bounds each promotion push dial+reply.
	NotifyTimeout time.Duration

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	stop   chan struct{}
	wg     sync.WaitGroup
	closed bool
}

// StartCoordServer listens on addr and starts the accept and failover
// loops. checkInterval <= 0 disables the failover loop (tests that step
// CheckFailuresDetail manually).
func StartCoordServer(addr string, coord *Coordinator, checkInterval time.Duration) (*CoordServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	cs := &CoordServer{
		coord:         coord,
		ln:            ln,
		checkInterval: checkInterval,
		NotifyTimeout: 2 * time.Second,
		conns:         make(map[net.Conn]struct{}),
		stop:          make(chan struct{}),
	}
	cs.wg.Add(1)
	go cs.acceptLoop()
	if checkInterval > 0 {
		cs.wg.Add(1)
		go cs.failoverLoop()
	}
	return cs, nil
}

// Addr returns the bound listen address.
func (cs *CoordServer) Addr() string { return cs.ln.Addr().String() }

// Close stops the loops and closes every connection.
func (cs *CoordServer) Close() error {
	cs.mu.Lock()
	if cs.closed {
		cs.mu.Unlock()
		return nil
	}
	cs.closed = true
	close(cs.stop)
	for c := range cs.conns {
		c.Close()
	}
	cs.mu.Unlock()
	err := cs.ln.Close()
	cs.wg.Wait()
	return err
}

func (cs *CoordServer) acceptLoop() {
	defer cs.wg.Done()
	for {
		nc, err := cs.ln.Accept()
		if err != nil {
			return
		}
		cs.mu.Lock()
		if cs.closed {
			cs.mu.Unlock()
			nc.Close()
			return
		}
		cs.conns[nc] = struct{}{}
		cs.mu.Unlock()
		cs.wg.Add(1)
		go cs.serveConn(nc)
	}
}

func (cs *CoordServer) serveConn(nc net.Conn) {
	defer cs.wg.Done()
	defer func() {
		cs.mu.Lock()
		delete(cs.conns, nc)
		cs.mu.Unlock()
		nc.Close()
	}()
	cr := newReader(nc)
	var out []byte
	for {
		raw, err := cr.ReadCommand()
		if err != nil {
			return
		}
		args := make([]string, len(raw))
		for i, a := range raw {
			args[i] = string(a)
		}
		out = cs.dispatch(out[:0], args)
		if _, err := nc.Write(out); err != nil {
			return
		}
	}
}

// newReader is the coordinator's RESP reader, for the commands it serves
// and for the replies to those it sends.
func newReader(nc net.Conn) *resp.Reader {
	return resp.NewReader(bufio.NewReader(nc), maxArgs, maxBulkLen)
}

// The coordinator's RESP limits: its longest command has five short
// arguments, and the longest reply it reads is a status line.
const (
	maxArgs    = 1024
	maxBulkLen = 1 << 20
)

// dispatch appends the reply to one command to out.
func (cs *CoordServer) dispatch(out []byte, args []string) []byte {
	switch {
	case len(args) == 0:
		return resp.AppendError(out, "empty command")
	case strings.EqualFold(args[0], "PING"):
		return resp.AppendSimple(out, "PONG")
	case strings.EqualFold(args[0], "CLUSTER"):
		if len(args) < 2 {
			return resp.AppendError(out, "wrong number of arguments for CLUSTER")
		}
		return cs.cluster(out, args[1:])
	}
	return resp.AppendError(out, "unknown command '"+args[0]+"'")
}

func (cs *CoordServer) cluster(out []byte, args []string) []byte {
	switch strings.ToUpper(args[0]) {
	case "REGISTER":
		if len(args) != 5 {
			return resp.AppendError(out, "usage: CLUSTER REGISTER id addr role masterAddr|-")
		}
		role := RoleMaster
		if strings.EqualFold(args[3], "replica") {
			role = RoleReplica
		}
		masterAddr := args[4]
		if masterAddr == "-" {
			masterAddr = ""
		}
		cs.coord.Register(Node{ID: args[1], Addr: args[2], Role: role, MasterAddr: masterAddr})
		return resp.AppendSimple(out, "OK")
	case "HEARTBEAT":
		if len(args) != 2 {
			return resp.AppendError(out, "usage: CLUSTER HEARTBEAT id")
		}
		if err := cs.coord.Heartbeat(args[1]); err != nil {
			return resp.AppendRawError(out, "UNKNOWNNODE "+args[1])
		}
		return resp.AppendSimple(out, "OK")
	case "DEREGISTER":
		if len(args) != 2 {
			return resp.AppendError(out, "usage: CLUSTER DEREGISTER id")
		}
		ev := cs.coord.DeregisterDetail(args[1])
		// Push the handoff promotion in the background: the draining
		// master is blocked on this +OK and must not wait for the
		// promotee's round-trip.
		if ev != nil && ev.PromotedAddr != "" {
			log.Printf("cluster: master %s (%s) deregistered; promoting %s (%s)",
				ev.FailedID, ev.FailedAddr, ev.PromotedID, ev.PromotedAddr)
			cs.wg.Add(1)
			go func(ev Failover) {
				defer cs.wg.Done()
				cs.pushPromotion(ev)
			}(*ev)
		}
		return resp.AppendSimple(out, "OK")
	case "TABLE":
		table := cs.coord.Table()
		blob, err := json.Marshal(&table)
		if err != nil {
			return resp.AppendError(out, "encoding table: "+err.Error())
		}
		return resp.AppendBulk(out, blob)
	case "EPOCH":
		table := cs.coord.Table()
		return resp.AppendInt(out, int64(table.Epoch))
	case "NODES":
		var sb strings.Builder
		for _, n := range cs.coord.Nodes() {
			fmt.Fprintf(&sb, "%s %s %s master=%s\n", n.ID, n.Addr, n.Role, n.MasterID)
		}
		return resp.AppendBulkString(out, sb.String())
	}
	return resp.AppendError(out, "unknown CLUSTER subcommand '"+args[0]+"'")
}

// failoverLoop periodically scans heartbeats and pushes promotions to
// the affected processes: the chosen replica gets `REPLICAOF NO ONE`,
// re-pointed surviving replicas get `REPLICAOF <newMaster>`.
func (cs *CoordServer) failoverLoop() {
	defer cs.wg.Done()
	t := time.NewTicker(cs.checkInterval)
	defer t.Stop()
	for {
		select {
		case <-cs.stop:
			return
		case <-t.C:
		}
		events := cs.coord.CheckFailuresDetail()
		for _, ev := range events {
			if ev.PromotedAddr == "" {
				log.Printf("cluster: master %s (%s) failed with no replica; slots redistributed", ev.FailedID, ev.FailedAddr)
				continue
			}
			log.Printf("cluster: master %s (%s) failed; promoting %s (%s)", ev.FailedID, ev.FailedAddr, ev.PromotedID, ev.PromotedAddr)
			cs.pushPromotion(ev)
		}
	}
}

// pushPromotion tells the promoted process it is now a master
// (`REPLICAOF NO ONE`) and re-points that promotee's surviving replicas
// at it. Shared by the failover loop and the graceful-deregister path.
func (cs *CoordServer) pushPromotion(ev Failover) {
	if err := cs.notify(ev.PromotedAddr, "REPLICAOF", "NO", "ONE"); err != nil {
		log.Printf("cluster: promotion notify %s: %v", ev.PromotedAddr, err)
	}
	host, port, splitErr := net.SplitHostPort(ev.PromotedAddr)
	if splitErr != nil {
		return
	}
	for _, n := range cs.coord.Nodes() {
		if n.Role == RoleReplica && n.MasterID == ev.PromotedID && n.ID != ev.PromotedID {
			if err := cs.notify(n.Addr, "REPLICAOF", host, port); err != nil {
				log.Printf("cluster: re-point notify %s: %v", n.Addr, err)
			}
		}
	}
}

// notify dials addr, sends one RESP command and checks for a non-error
// reply, retrying a couple of times — promotion must survive a replica
// that is briefly busy tearing down its dead master link.
func (cs *CoordServer) notify(addr string, args ...string) error {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			select {
			case <-cs.stop:
				return lastErr
			case <-time.After(100 * time.Millisecond):
			}
		}
		reply, err := send(addr, cs.NotifyTimeout, args...)
		if msg, refused := reply.(resp.Error); refused {
			err = errors.New(string(msg))
		}
		if err == nil {
			return nil
		}
		lastErr = err
	}
	return lastErr
}

// send dials addr, sends one command and returns its reply (a resp.Error
// when the node refused it).
func send(addr string, timeout time.Duration, args ...string) (interface{}, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(timeout))
	if _, err := nc.Write(resp.AppendCommand(nil, args...)); err != nil {
		return nil, err
	}
	return newReader(nc).ReadReply()
}
