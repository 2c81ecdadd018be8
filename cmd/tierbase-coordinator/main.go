// Command tierbase-coordinator runs the TierBase coordinator: the small
// control-plane process data nodes register with and heartbeat to
// (paper §3's coordinator cluster). It owns the slot routing table,
// detects master failures by heartbeat timeout, promotes a replica, and
// pushes REPLICAOF to the affected live nodes.
//
// Usage:
//
//	tierbase-coordinator -addr :7000 -heartbeat-timeout 2s -check-interval 500ms
//	tierbase-server -addr :6380 -node-id m1 -coordinator 127.0.0.1:7000
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tierbase/internal/cluster"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:7000", "listen address")
		hbTimeout     = flag.Duration("heartbeat-timeout", 2*time.Second, "silence after which a node is failed")
		checkInterval = flag.Duration("check-interval", 500*time.Millisecond, "failure-detection sweep period (0 disables failover)")
	)
	flag.Parse()

	coord := cluster.NewCoordinator()
	coord.HeartbeatTimeout = *hbTimeout

	cs, err := cluster.StartCoordServer(*addr, coord, *checkInterval)
	if err != nil {
		log.Fatalf("tierbase-coordinator: %v", err)
	}
	log.Printf("tierbase-coordinator listening on %s (heartbeat timeout %v, check every %v)",
		cs.Addr(), *hbTimeout, *checkInterval)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
	cs.Close()
}
