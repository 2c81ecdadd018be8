package server

import (
	"fmt"
	"sync/atomic"
	"time"

	"tierbase/internal/metrics"
)

// Overload protection (see README.md "Overload protection"): admission
// control at accept, slow-client shedding at reply flush, and global
// memory watermarks gating writes at dispatch. The policy never touches
// replication sessions (a hijacked SYNC connection manages its own
// deadlines and laggard shedding — see serveReplica) and never rejects
// reads: a node above its high watermark keeps serving the cache tier
// while writers back off on a typed, retryable -OVERLOADED.

// OverloadConfig holds the overload-protection knobs. Zero values mean
// "use the default"; negative values disable the corresponding bound
// where documented.
type OverloadConfig struct {
	// MaxConns caps concurrently served client connections. A connection
	// beyond the cap is answered with a typed -MAXCONN error and closed
	// at accept, before a goroutine or parse arena is committed to it.
	// 0 = unlimited.
	MaxConns int
	// MaxOutputBytes caps one connection's pending reply buffer. A
	// client that pipelines requests faster than it drains replies is
	// shed (connection closed, shed_conns counted) when the buffer
	// passes the cap, so one stuck consumer can never pin master
	// memory. 0 = default 32 MiB; negative disables.
	MaxOutputBytes int
	// ReadTimeout bounds how long the server waits for the next command
	// on an idle connection (and for the remainder of a partially read
	// one). 0 disables: idle clients are legitimate in most deployments.
	ReadTimeout time.Duration
	// WriteTimeout bounds every reply flush to the socket. A slow
	// reader whose kernel buffer stays full past the bound is shed
	// instead of pinning the connection goroutine and its reply buffer.
	// 0 = default 30s; negative disables.
	WriteTimeout time.Duration
	// HighWatermarkBytes enables global memory watermarks when > 0:
	// while the tracked total (engine bytes or cache budget, whichever
	// is larger, plus write-back dirty backlog, storage memtables, and
	// the replication log window) is at or above this bound, writes
	// fail fast with a typed, retryable -OVERLOADED; reads keep
	// serving.
	HighWatermarkBytes int64
	// LowWatermarkBytes is the hysteresis floor: writes resume once the
	// tracked total falls to or below it. 0 = 90% of the high
	// watermark.
	LowWatermarkBytes int64
	// CheckInterval is the watermark sampling period (0 = default
	// 100ms).
	CheckInterval time.Duration
	// DrainTimeout bounds the graceful-drain wait for in-flight client
	// commands in Shutdown before remaining connections are force
	// closed (0 = default 10s).
	DrainTimeout time.Duration
}

// normalize fills defaulted overload fields in place.
func (o *OverloadConfig) normalize() {
	if o.MaxOutputBytes == 0 {
		o.MaxOutputBytes = 32 << 20
	}
	if o.MaxOutputBytes < 0 {
		o.MaxOutputBytes = 0 // disabled
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 30 * time.Second
	}
	if o.WriteTimeout < 0 {
		o.WriteTimeout = 0 // disabled
	}
	if o.ReadTimeout < 0 {
		o.ReadTimeout = 0
	}
	if o.HighWatermarkBytes > 0 && o.LowWatermarkBytes <= 0 {
		o.LowWatermarkBytes = o.HighWatermarkBytes / 10 * 9
	}
	if o.CheckInterval <= 0 {
		o.CheckInterval = 100 * time.Millisecond
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 10 * time.Second
	}
}

// validate rejects contradictory overload configuration.
func (o *OverloadConfig) validate() error {
	if o.MaxConns < 0 {
		return fmt.Errorf("server: negative connection cap %d", o.MaxConns)
	}
	if o.HighWatermarkBytes < 0 {
		return fmt.Errorf("server: negative high watermark %d", o.HighWatermarkBytes)
	}
	if o.HighWatermarkBytes > 0 && o.LowWatermarkBytes > o.HighWatermarkBytes {
		return fmt.Errorf("server: low watermark %d above high watermark %d",
			o.LowWatermarkBytes, o.HighWatermarkBytes)
	}
	return nil
}

// overloadState is the server's live overload-protection state: the
// watermark flag plus the counters INFO overload reports. All fields are
// sampled/bumped lock-free on hot paths.
type overloadState struct {
	overloaded     atomic.Bool  // memory at/above high watermark; writes rejected
	memUsage       atomic.Int64 // last sampled tracked total
	maxConnRejects atomic.Int64 // connections refused with -MAXCONN
	shedConns      atomic.Int64 // connections closed at the output cap or write deadline
	idleCloses     atomic.Int64 // connections closed at the read/idle deadline
	rejectedWrites atomic.Int64 // writes answered with -OVERLOADED
	watermarkTrips atomic.Int64 // transitions into the overloaded state
	slowestOut     metrics.MaxGauge
}

// overloadedReply is the typed, retryable write rejection. Clients
// (internal/client) parse the OVERLOADED prefix into a typed error and
// back off before retrying the same node.
const overloadedReply = "OVERLOADED memory above high watermark, writes shed; retry after backoff"

// maxConnReply is the typed admission rejection, written raw at accept
// (there is no conn state yet).
const maxConnReply = "-MAXCONN connection limit reached\r\n"

// rejectWrites reports whether the watermark gate is currently shedding
// writes. One atomic load on the dispatch hot path.
func (s *Server) rejectWrites() bool {
	return s.over.overloaded.Load()
}

// memUsage computes the tracked memory total the watermarks act on:
// per shard, the larger of live engine bytes and the configured cache
// budget (the budget is reserved whether or not it is full), plus the
// write-back dirty backlog (copied buffers outside the engine), the
// storage tier's memtables, and the replication log window.
func (s *Server) memUsage() int64 {
	var total int64
	for _, sh := range s.shards {
		total += max(sh.eng.MemUsed(), sh.tiered.CapacityBytes()) + sh.tiered.DirtyBytes()
	}
	if s.opts.StorageStats != nil {
		for _, st := range s.opts.StorageStats() {
			total += st.MemtableBytes + st.ImmutableBytes
		}
	}
	if s.repl != nil {
		total += s.repl.log.Bytes()
	}
	return total
}

// watermarkLoop samples memUsage every CheckInterval and flips the
// overloaded flag with hysteresis: set at/above the high watermark,
// cleared at/below the low one, unchanged in between (so the gate
// doesn't flap while usage oscillates around one bound).
func (s *Server) watermarkLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.Overload.CheckInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			s.sampleWatermark()
		}
	}
}

// sampleWatermark runs one watermark evaluation (extracted so tests can
// force a sample instead of racing the ticker).
func (s *Server) sampleWatermark() {
	usage := s.memUsage()
	s.over.memUsage.Store(usage)
	cfg := &s.opts.Overload
	switch {
	case usage >= cfg.HighWatermarkBytes:
		if !s.over.overloaded.Swap(true) {
			s.over.watermarkTrips.Add(1)
		}
	case usage <= cfg.LowWatermarkBytes:
		s.over.overloaded.Store(false)
	}
}
