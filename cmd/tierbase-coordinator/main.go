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
	"errors"
	"flag"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tierbase/internal/cluster"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stderr, sig); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatalf("tierbase-coordinator: %v", err)
	}
}

// run serves the coordinator args describe, logging to logw, until stop
// delivers a signal.
func run(args []string, logw io.Writer, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("tierbase-coordinator", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		addr          = fs.String("addr", "127.0.0.1:7000", "listen address")
		hbTimeout     = fs.Duration("heartbeat-timeout", 2*time.Second, "silence after which a node is failed")
		checkInterval = fs.Duration("check-interval", 500*time.Millisecond, "failure-detection sweep period (0 disables failover)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *hbTimeout <= 0 {
		return errors.New("-heartbeat-timeout must be positive")
	}

	coord := cluster.NewCoordinator()
	coord.HeartbeatTimeout = *hbTimeout
	cs, err := cluster.StartCoordServer(*addr, coord, *checkInterval)
	if err != nil {
		return err
	}
	logger := log.New(logw, "", log.LstdFlags)
	logger.Printf("tierbase-coordinator listening on %s (heartbeat timeout %v, check every %v)",
		cs.Addr(), *hbTimeout, *checkInterval)
	<-stop
	logger.Print("shutting down")
	return cs.Close()
}
