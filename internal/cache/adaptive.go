package cache

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tierbase/internal/metrics"
)

// Workload-adaptive cache tiering: the cache tier watches its own access
// pattern and moves byte budget to where the hits are.
//
// Every stripe carries cheap atomic hit/miss counters folded into
// sliding-window rates (metrics.WindowCounter — lock-free, one clock read
// plus one atomic add per sample). A background rebalancer ranks stripes
// by per-round miss pressure (the round's misses weighted by how hard the
// stripe pushes on its budget), steals budget from cold stripes and grants it to
// hot ones with a bounded per-round step, a per-stripe floor, and a
// hysteresis dead band around the mean so similar stripes don't trade
// budget back and forth. Eviction already runs per-stripe against the
// stripe budget, so the mechanism is "make the budget a live atomic
// target" plus an eviction nudge on stripes that shrank.
//
// Opt-in on top: hit-rate-targeted total sizing (TargetHitRate) drives
// the summed budget up toward MaxCapacityBytes while the sampled window
// hit rate is under target, and back down toward MinCapacityBytes while
// comfortably over — the AdaptiveMemoryStore shape, striped.

// tieringWindow is the sampling window shape: slots x slot duration.
// ~2 s covers many 100 ms rebalance rounds, so one round reacts to a
// trend, not to the last handful of requests.
const (
	tieringSlots   = 10
	tieringSlotDur = 200 * time.Millisecond
)

// minResizeSamples is the fewest in-window accesses adaptive sizing acts
// on; below it the hit rate is noise.
const minResizeSamples = 64

// rollbackCooldown is how many rounds stealing pauses after a rollback:
// long enough to break a harmful oscillation, short enough that a real
// workload shift (which can also spike misses right after a move) only
// delays re-convergence by a few rounds.
const rollbackCooldown = 4

// rebalanceHysteresis is the dead band around the mean miss pressure: a
// stripe must be this fraction above (below) the mean to rank hot (cold).
const rebalanceHysteresis = 0.25

// stripeTier is one stripe's sampling + budget state.
type stripeTier struct {
	budget    atomic.Int64 // live byte budget (eviction target); 0 = unbounded
	hits      atomic.Int64 // lifetime
	misses    atomic.Int64
	stolen    atomic.Int64 // cumulative bytes rebalanced away
	granted   atomic.Int64 // cumulative bytes rebalanced in
	winHits   *metrics.WindowCounter
	winMisses *metrics.WindowCounter
	// prevMisses is the lifetime miss count at the last rebalance round;
	// only the rebalancer touches it, under rebalMu. The round-over-round
	// delta is the steering signal: it reacts within one round, where the
	// 2 s display window would keep a stripe ranked cold (and donating)
	// long after a grant started starving it.
	prevMisses int64
}

func (s *stripeTier) sampleHit(n int64) {
	s.hits.Add(n)
	s.winHits.Mark(n)
}

func (s *stripeTier) sampleMiss(n int64) {
	s.misses.Add(n)
	s.winMisses.Mark(n)
}

// tiering is the Tiered store's adaptive state.
type tiering struct {
	stripes []*stripeTier
	floor   int64 // no stripe's budget is stolen below this
	step    int64 // max bytes moved into/out of one stripe per round

	// capacity is the live total budget (the stripes' budgets sum to it);
	// adaptive sizing moves it between the min/max bounds.
	capacity atomic.Int64

	// rebalMu serializes rounds: the background loop vs RebalanceNow from
	// tests/tools. Sampling and eviction never take it.
	rebalMu sync.Mutex

	// Hill-climb do-no-harm guard (all touched only under rebalMu): when a
	// round moves budget, lastMoves records the transfers and prevTotal the
	// miss total they were meant to improve. If the next round's total is
	// clearly worse, the transfers are reverted and stealing pauses for
	// cooldown rounds. This is what keeps the rebalancer within noise of a
	// static even split when the even split is already near-optimal (hot
	// keys hash-spread evenly, every stripe at its working-set knee): a bad
	// steal survives one round, then gets undone.
	lastMoves []budgetMove
	prevTotal int64
	cooldown  int

	rebalances atomic.Int64 // rounds that moved budget
	bytesMoved atomic.Int64 // cumulative budget moved stripe-to-stripe
	rollbacks  atomic.Int64 // rounds that reverted the previous round's moves
	grows      atomic.Int64 // adaptive-sizing grow steps
	shrinks    atomic.Int64 // adaptive-sizing shrink steps
}

// budgetMove is one stripe-to-stripe transfer inside a rebalance round.
type budgetMove struct {
	from, to int
	bytes    int64
}

// initTiering allocates per-stripe state and seeds the budgets with the
// even ceil split (stripes sum to at least the configured capacity, and a
// tiny capacity never rounds a stripe's budget down to an "unbounded" 0).
func (t *Tiered) initTiering(nsh int) {
	t.tier.stripes = make([]*stripeTier, nsh)
	for i := range t.tier.stripes {
		t.tier.stripes[i] = &stripeTier{
			winHits:   metrics.NewWindowCounter(tieringSlots, tieringSlotDur),
			winMisses: metrics.NewWindowCounter(tieringSlots, tieringSlotDur),
		}
	}
	if t.opts.CacheCapacityBytes <= 0 {
		return // unbounded cache: budgets stay 0, rebalancer never starts
	}
	even := (t.opts.CacheCapacityBytes + int64(nsh) - 1) / int64(nsh)
	for _, st := range t.tier.stripes {
		st.budget.Store(even)
	}
	t.tier.capacity.Store(even * int64(nsh))
	// A stripe is never stolen below an eighth of the even split, and at
	// most a quarter of it moves into or out of one stripe per round.
	t.tier.floor = max(even/8, 1)
	t.tier.step = max(even/4, 1)
}

// sampleHitBatch / sampleMissBatch record batch-read outcomes per stripe
// in one counting-sort grouping pass each — noise next to the stripe
// locks (hits) or the storage round trip (misses) the batch already pays.
func (t *Tiered) sampleHitBatch(keys []string) {
	if len(keys) == 0 {
		return
	}
	t.eng.GroupKeysByShard(keys, func(si int, group []string) {
		t.tier.stripes[si].sampleHit(int64(len(group)))
	})
}

func (t *Tiered) sampleMissBatch(keys []string) {
	if len(keys) == 0 {
		return
	}
	t.eng.GroupKeysByShard(keys, func(si int, group []string) {
		t.tier.stripes[si].sampleMiss(int64(len(group)))
	})
}

// rebalanceLoop runs rounds until Close.
func (t *Tiered) rebalanceLoop() {
	defer t.wg.Done()
	tick := time.NewTicker(t.opts.RebalanceInterval)
	defer tick.Stop()
	for {
		select {
		case <-t.stopCh:
			return
		case <-tick.C:
			t.RebalanceNow()
		}
	}
}

// stripeView is one stripe's snapshot inside a rebalance round.
type stripeView struct {
	si       int
	budget   int64
	resident int64
	pressure float64
	donated  int64 // bytes given up so far this round (donors only)
}

// RebalanceNow runs one rebalance round synchronously and reports the
// bytes moved. The background loop calls it on its interval; tests and
// tools may call it directly for deterministic stepping. Budget is
// conserved: the round moves budget between stripes (and resizes the
// total only in adaptive-sizing mode), never mints it.
func (t *Tiered) RebalanceNow() int64 {
	if t.opts.CacheCapacityBytes <= 0 {
		return 0
	}
	t.tier.rebalMu.Lock()
	defer t.tier.rebalMu.Unlock()

	t.maybeResize()

	// Snapshot: miss pressure per stripe, from the misses of THIS round
	// (delta since the previous round — lag-1 feedback, so a donor that a
	// steal pushed into starvation stops ranking cold on the very next
	// round). Misses on a stripe far under its budget are cold misses,
	// not capacity starvation — weight by fullness so only budget-bound
	// stripes rank hot.
	views := make([]stripeView, len(t.tier.stripes))
	var total float64
	var rawTotal int64
	for i, st := range t.tier.stripes {
		b := st.budget.Load()
		r := t.eng.ShardMemUsed(i)
		full := float64(r) / float64(b)
		if full > 1 {
			full = 1
		}
		lifetime := st.misses.Load()
		delta := lifetime - st.prevMisses
		st.prevMisses = lifetime
		p := float64(delta) * full
		views[i] = stripeView{si: i, budget: b, resident: r, pressure: p}
		total += p
		rawTotal += delta
	}

	// Do-no-harm check on the previous round's moves: the unweighted miss
	// total this round is their outcome. Clearly worse (an eighth over, and
	// past a small absolute slack so near-zero totals don't trip it) means
	// the steal starved its donors more than it fed its grantees — revert
	// and cool down. Anything else commits the moves.
	if len(t.tier.lastMoves) > 0 {
		slack := t.tier.prevTotal / 8
		if slack < 4 {
			slack = 4
		}
		if rawTotal > t.tier.prevTotal+slack {
			reverted := t.rollbackLocked()
			t.tier.prevTotal = rawTotal
			t.tier.cooldown = rollbackCooldown
			return reverted
		}
		t.tier.lastMoves = nil
	}
	t.tier.prevTotal = rawTotal
	if t.tier.cooldown > 0 {
		t.tier.cooldown--
		return 0
	}

	if total == 0 {
		return 0 // no capacity pressure anywhere
	}
	mean := total / float64(len(views))

	// Classify with a dead band around the mean: only clearly-hot stripes
	// receive and only clearly-cold stripes donate, so near-mean stripes
	// (a shifting hotspot mid-transition, or uniform load) don't churn
	// budget back and forth between rounds.
	var hot, cold []stripeView
	for _, v := range views {
		switch {
		case v.pressure > mean*(1+rebalanceHysteresis) && v.resident*2 >= v.budget:
			// Hot and actually pressing on the budget. Half-full is the
			// bar, not nearly-full: a shrunk stripe's residency quantizes
			// to whole items and can sit well under its byte budget while
			// its working set starves.
			hot = append(hot, v)
		case v.pressure < mean*(1-rebalanceHysteresis) && v.budget > t.tier.floor:
			cold = append(cold, v)
		}
	}
	if len(hot) == 0 || len(cold) == 0 {
		return 0
	}
	// Neediest stripes receive first, coldest stripes donate first.
	sort.Slice(hot, func(a, b int) bool { return hot[a].pressure > hot[b].pressure })
	sort.Slice(cold, func(a, b int) bool { return cold[a].pressure < cold[b].pressure })

	var moved int64
	ci := 0
	avail := func(v *stripeView) int64 {
		// Bounded donation per round, symmetric to grants: a donor gives at
		// most step bytes total this round, and never goes below the floor.
		room := v.budget - t.tier.floor
		if lim := t.tier.step - v.donated; room > lim {
			room = lim
		}
		return room
	}
	shrunk := make([]int, 0, len(cold))
	for _, h := range hot {
		need := t.tier.step
		for need > 0 && ci < len(cold) {
			c := &cold[ci]
			take := avail(c)
			if take <= 0 {
				ci++
				continue
			}
			if take > need {
				take = need
			}
			c.budget -= take
			c.donated += take
			t.tier.stripes[c.si].budget.Add(-take)
			t.tier.stripes[c.si].stolen.Add(take)
			t.tier.stripes[h.si].budget.Add(take)
			t.tier.stripes[h.si].granted.Add(take)
			t.tier.lastMoves = append(t.tier.lastMoves, budgetMove{from: c.si, to: h.si, bytes: take})
			if len(shrunk) == 0 || shrunk[len(shrunk)-1] != c.si {
				shrunk = append(shrunk, c.si)
			}
			need -= take
			moved += take
			if avail(c) <= 0 {
				ci++
			}
		}
		if ci >= len(cold) {
			break
		}
	}
	if moved > 0 {
		t.tier.rebalances.Add(1)
		t.tier.bytesMoved.Add(moved)
		// Post-steal eviction nudge: shrunk stripes trim residency down to
		// their new budget now instead of waiting for their next write.
		for _, si := range shrunk {
			t.maybeEvictShard(si)
		}
	}
	return moved
}

// rollbackLocked undoes the previous round's transfers (clamped so no
// grantee drops below the floor), nudges eviction on the stripes that
// shrank back, and reports the bytes moved. Runs under rebalMu.
func (t *Tiered) rollbackLocked() int64 {
	var reverted int64
	shrunk := make([]int, 0, len(t.tier.lastMoves))
	for _, mv := range t.tier.lastMoves {
		amt := mv.bytes
		if room := t.tier.stripes[mv.to].budget.Load() - t.tier.floor; amt > room {
			amt = room // a later resize/steal may have shrunk the grantee
		}
		if amt <= 0 {
			continue
		}
		t.tier.stripes[mv.to].budget.Add(-amt)
		t.tier.stripes[mv.to].stolen.Add(amt)
		t.tier.stripes[mv.from].budget.Add(amt)
		t.tier.stripes[mv.from].granted.Add(amt)
		shrunk = append(shrunk, mv.to)
		reverted += amt
	}
	t.tier.lastMoves = nil
	if reverted > 0 {
		t.tier.bytesMoved.Add(reverted)
		for _, si := range shrunk {
			t.maybeEvictShard(si)
		}
	}
	t.tier.rollbacks.Add(1)
	return reverted
}

// maybeResize is the opt-in hit-rate-targeted total sizing step: sampled
// window hit rate vs TargetHitRate drives the summed budget between
// MinCapacityBytes and MaxCapacityBytes in bounded steps. Runs under
// rebalMu.
func (t *Tiered) maybeResize() {
	target := t.opts.TargetHitRate
	if target <= 0 {
		return
	}
	var h, m int64
	for _, st := range t.tier.stripes {
		h += st.winHits.Sum()
		m += st.winMisses.Sum()
	}
	if h+m < minResizeSamples {
		return
	}
	hr := float64(h) / float64(h+m)
	cur := t.tier.capacity.Load()
	// Step an eighth of current capacity per round; the dead band (2% over
	// target before shrinking) keeps the controller from sawing around the
	// target once it converges.
	step := cur / 8
	if step < 1 {
		step = 1
	}
	nsh := int64(len(t.tier.stripes))
	switch {
	case hr < target && cur < t.opts.MaxCapacityBytes:
		delta := step
		if cur+delta > t.opts.MaxCapacityBytes {
			delta = t.opts.MaxCapacityBytes - cur
		}
		per := delta / nsh
		rem := delta % nsh
		for i, st := range t.tier.stripes {
			d := per
			if int64(i) < rem {
				d++
			}
			st.budget.Add(d)
		}
		t.tier.capacity.Add(delta)
		t.tier.grows.Add(1)
	case hr > target+0.02 && cur > t.opts.MinCapacityBytes:
		delta := step
		if cur-delta < t.opts.MinCapacityBytes {
			delta = cur - t.opts.MinCapacityBytes
		}
		// Shrink respects the per-stripe floor; whatever the floors block
		// stays allocated (capacity adjusts by what actually came off).
		var removed int64
		per := delta / nsh
		rem := delta % nsh
		for i, st := range t.tier.stripes {
			want := per
			if int64(i) < rem {
				want++
			}
			room := st.budget.Load() - t.tier.floor
			if room <= 0 {
				continue
			}
			if want > room {
				want = room
			}
			st.budget.Add(-want)
			removed += want
		}
		if removed > 0 {
			t.tier.capacity.Add(-removed)
			t.tier.shrinks.Add(1)
			for si := range t.tier.stripes {
				t.maybeEvictShard(si)
			}
		}
	}
}

// --- observability ---

// StripeTiering is one stripe's tiering snapshot.
type StripeTiering struct {
	BudgetBytes   int64
	ResidentBytes int64
	WindowHits    int64
	WindowMisses  int64
	HitRate       float64 // in-window; 0 when the window saw no traffic
	StolenBytes   int64   // cumulative budget rebalanced away
	GrantedBytes  int64   // cumulative budget rebalanced in
}

// TieringStats is the adaptive-tiering snapshot behind INFO tiering.
type TieringStats struct {
	Adaptive        bool  // rebalancer running
	CapacityBytes   int64 // live total budget (0 = unbounded)
	ConfiguredBytes int64 // Options.CacheCapacityBytes
	FloorBytes      int64
	StepBytes       int64
	Rebalances      int64 // rounds that moved budget
	Rollbacks       int64 // rounds that reverted the previous round's moves
	BytesMoved      int64
	Grows           int64 // adaptive-sizing growth steps
	Shrinks         int64 // adaptive-sizing shrink steps
	WindowHitRate   float64
	Stripes         []StripeTiering
}

// TieringStats snapshots per-stripe budgets, residency and windowed hit
// rates plus the rebalance counters.
func (t *Tiered) TieringStats() TieringStats {
	out := TieringStats{
		Adaptive:        t.opts.AdaptiveTiering && t.opts.CacheCapacityBytes > 0,
		CapacityBytes:   t.tier.capacity.Load(),
		ConfiguredBytes: t.opts.CacheCapacityBytes,
		FloorBytes:      t.tier.floor,
		StepBytes:       t.tier.step,
		Rebalances:      t.tier.rebalances.Load(),
		Rollbacks:       t.tier.rollbacks.Load(),
		BytesMoved:      t.tier.bytesMoved.Load(),
		Grows:           t.tier.grows.Load(),
		Shrinks:         t.tier.shrinks.Load(),
		Stripes:         make([]StripeTiering, len(t.tier.stripes)),
	}
	var h, m int64
	for i, st := range t.tier.stripes {
		wh, wm := st.winHits.Sum(), st.winMisses.Sum()
		h += wh
		m += wm
		s := StripeTiering{
			BudgetBytes:   st.budget.Load(),
			ResidentBytes: t.eng.ShardMemUsed(i),
			WindowHits:    wh,
			WindowMisses:  wm,
			StolenBytes:   st.stolen.Load(),
			GrantedBytes:  st.granted.Load(),
		}
		if wh+wm > 0 {
			s.HitRate = float64(wh) / float64(wh+wm)
		}
		out.Stripes[i] = s
	}
	if h+m > 0 {
		out.WindowHitRate = float64(h) / float64(h+m)
	}
	return out
}
