package logan

import (
	"math"
	"slices"
	"time"
)

// This file is the Coalescer's policy: who is admitted (admit), who is
// served next (laneSched), and the order admission, the tenant's token
// bucket and the queue are consulted in (laneSched.submit). It holds no
// mutex, context, clock, telemetry or engine (scripts/doc-lint.sh keeps
// it so): coalescer.go is the mechanism that does, and
// coalescer_sim_test.go replays overload traces through it in virtual time.

// shedReason tags why admission control rejected a request.
type shedReason int

const (
	shedDelay shedReason = iota
	shedDeadline
	shedQuota
)

// noDeadline is admission.timeLeft of a request without a deadline.
const noDeadline = time.Duration(math.MaxInt64)

// admission is everything the admission policy reads. The mechanism
// fills floor, rate, target and timeLeft; submit fills the queue state.
type admission struct {
	queued       int           // pairs the tenant has queued ahead of this request (only interactive ones for an interactive request)
	n            int           // pairs of this request
	weight       int           // the tenant's fair-share weight
	activeWeight int           // summed weight of tenants with queued work, requester included
	floor        int           // MaxBatchPairs: one batch per tenant is always admissible
	rate         float64       // measured drain rate in pairs/s; 0 = not calibrated yet
	target       time.Duration // TargetDelay
	timeLeft     time.Duration // until the request's deadline; noDeadline without one
}

// admit is the admission policy. One engine batch per tenant is always
// admissible (coalescing must keep working at low load), and so is
// everything until the first batches have measured a drain rate. Past
// that floor the tenant's queue, this request included, is projected to
// drain at the tenant's weight share of the rate — a flooding tenant
// exhausts its own share while a well-behaved tenant's stays open — and
// the request is shed when the projection exceeds the target, or, even
// under the target, when its own deadline is nearer than the projection.
// Shares move only for later arrivals: what a tenant queued while it was
// the only active one drains at its smaller share once others join, so
// its admitted requests can overstay the target (replay scenario d).
func admit(in admission) (ok bool, reason shedReason) {
	if in.queued+in.n <= in.floor || in.rate <= 0 {
		return true, 0
	}
	shareRate := in.rate * float64(in.weight) / float64(in.activeWeight)
	projected := time.Duration(float64(in.queued+in.n) / shareRate * float64(time.Second))
	switch {
	case projected > in.target:
		return false, shedDelay
	case in.timeLeft < projected:
		return false, shedDeadline
	}
	return true, 0
}

// maxBulkPassOver is how many consecutive batches may go to interactive
// lanes while bulk work is queued before the next batch is a bulk one:
// interactive traffic has priority, bulk never starves.
const maxBulkPassOver = 4

// laneKey identifies one scheduling lane: a tenant's stream of
// same-config requests in one priority class. Tenants compare by
// identity, configurations by configKey (matrices by interned pointer);
// the configKey is also all the flusher needs to run the lane's batches.
type laneKey struct {
	ten   *Tenant
	class priorityClass
	cfg   configKey
}

// lane is the pending queue of one (tenant, class, config): its waiters
// in FIFO order, their pair count and the DRR deficit credit. Lanes
// exist only while non-empty; a live lane is always in its class ring.
type lane struct {
	key     laneKey
	waiters []*coalesceWaiter
	pending int
	// deficit is the DRR service credit in pairs: each scheduler visit
	// grants the lane one quantum, and every batch debits what it actually
	// took, so a lane whose batch overshot the quantum (batches take whole
	// requests) sits out a turn while its debt amortizes.
	deficit int
	// visits counts this rotation's visits: the cursor moves on after as
	// many as the tenant's weight, so service is in proportion to the
	// weights admission projects with.
	visits int
}

// laneSched is the queue of admitted requests and the order they leave
// it in: lanes served deficit-round-robin inside a class, interactive
// ahead of bulk up to the pass-over bound. Of a waiter it reads only
// len(in) and writes only enq. The Coalescer guards one with its mutex.
type laneSched struct {
	lanes      map[laneKey]*lane   // every non-empty lane
	rings      [numClasses][]*lane // DRR rings per class, in lane-creation order
	cursor     [numClasses]int     // DRR rotation position per class
	bulkPassed int                 // consecutive interactive batches taken while bulk work was queued
	tenPending map[*Tenant]int     // queued pairs per tenant with any
	tenInter   map[*Tenant]int     // the interactive share of tenPending
	pending    int                 // pairs queued across all lanes
}

func newLaneSched() laneSched {
	return laneSched{lanes: make(map[laneKey]*lane), tenPending: make(map[*Tenant]int), tenInter: make(map[*Tenant]int)}
}

// submit is the one admission sequence: the policy decides first, and
// only an interactive request it admits draws on its tenant's token
// bucket (so a request shed for delay or deadline costs its tenant no
// quota; a bucket that then refuses reports shedQuota), and only one that
// passed both is queued, stamped with its arrival time. Bulk work — the
// pipelines' extension chunks — draws no quota. An interactive request is
// projected against its tenant's interactive queue alone, since bulk is
// served after it; a bulk one against everything its tenant has queued.
// Either drains at the tenant's weight share among all tenants with
// queued work, as queued bulk still takes a batch after maxBulkPassOver.
// a carries what the mechanism knows; the queue state is filled in here.
func (s *laneSched) submit(key laneKey, w *coalesceWaiter, a admission, now time.Time) (shedReason, bool) {
	a.queued, a.n = s.tenPending[key.ten], len(w.in)
	if key.class == classInteractive {
		a.queued = s.tenInter[key.ten]
	}
	a.weight, a.activeWeight = key.ten.weight, s.activeWeight(key.ten)
	if ok, reason := admit(a); !ok {
		return reason, false
	}
	if key.class == classInteractive && !key.ten.takePairs(a.n, now) {
		return shedQuota, false
	}
	w.enq = now
	s.enqueue(key, w)
	return 0, true
}

// activeWeight sums the fair-share weights of tenants with queued pairs,
// always counting the requester (who is about to have some).
func (s *laneSched) activeWeight(ten *Tenant) int {
	w := ten.weight
	for t2 := range s.tenPending {
		if t2 != ten {
			w += t2.weight
		}
	}
	return w
}

// enqueue appends w to its lane, creating the lane (and its ring
// membership) on first use.
func (s *laneSched) enqueue(key laneKey, w *coalesceWaiter) {
	l := s.lanes[key]
	if l == nil {
		l = &lane{key: key}
		s.lanes[key] = l
		s.rings[key.class] = append(s.rings[key.class], l)
	}
	l.waiters = append(l.waiters, w)
	s.charge(l, len(w.in))
}

// charge adjusts the queued-pair counts of l, its tenant and the whole
// queue; a tenant's entries are dropped at zero so activeWeight only
// visits tenants with work, and an emptied lane leaves the map and its
// ring.
func (s *laneSched) charge(l *lane, delta int) {
	l.pending += delta
	s.pending += delta
	addPending(s.tenPending, l.key.ten, delta)
	if l.key.class == classInteractive {
		addPending(s.tenInter, l.key.ten, delta)
	}
	if len(l.waiters) == 0 {
		s.dropLane(l)
	}
}

// addPending moves ten's entry of pending by delta, dropping it at zero.
func addPending(pending map[*Tenant]int, ten *Tenant, delta int) {
	if v := pending[ten] + delta; v > 0 {
		pending[ten] = v
	} else {
		delete(pending, ten)
	}
}

// abandon removes a still-queued waiter, releasing its share of the
// queue. It reports false when a batch has already taken the waiter.
func (s *laneSched) abandon(key laneKey, w *coalesceWaiter) bool {
	l := s.lanes[key]
	if l == nil {
		return false
	}
	i := slices.Index(l.waiters, w)
	if i < 0 {
		return false
	}
	l.waiters = slices.Delete(l.waiters, i, i+1)
	s.charge(l, -len(w.in))
	return true
}

// dropLane removes an emptied lane from the lane map and its class ring,
// keeping the DRR cursor on the same neighbor (or, past the end, wrapping).
func (s *laneSched) dropLane(l *lane) {
	delete(s.lanes, l.key)
	cl := l.key.class
	i := slices.Index(s.rings[cl], l)
	s.rings[cl] = slices.Delete(s.rings[cl], i, i+1) // also clears the vacated slot
	if s.cursor[cl] > i {
		s.cursor[cl]--
	}
	if s.cursor[cl] >= len(s.rings[cl]) {
		s.cursor[cl] = 0
	}
}

// pick selects the lane the next batch is taken from, or nil when the
// queue is empty. Interactive lanes go first, but once bulk work has been
// passed over for maxBulkPassOver consecutive batches the next batch is a
// bulk one. Inside a class the lanes are served deficit round-robin: each
// visit earns a lane one quantum of credit, a rotation visits a lane as
// many times as its tenant's weight, and the first lane whose credit
// covers a full batch wins. Batches debit actual pairs served (see take),
// so a lane whose previous batch overshot the quantum — batches take whole
// requests — sits out a visit while the debt amortizes: that is what
// keeps many same-size lanes within one batch of their weighted share.
func (s *laneSched) pick(quantum int) *lane {
	inter, bulk := len(s.rings[classInteractive]) > 0, len(s.rings[classBulk]) > 0
	if !inter && !bulk {
		return nil
	}
	class := classInteractive
	if !inter || (bulk && s.bulkPassed >= maxBulkPassOver) {
		class = classBulk
	}
	if class == classInteractive && bulk {
		s.bulkPassed++
	} else {
		s.bulkPassed = 0
	}
	ring := s.rings[class]
	// A batch is under two quanta (queued requests are under one each), so
	// no debt exceeds one quantum and the second rotation at the latest
	// finds a lane in credit.
	for idx := s.cursor[class]; ; {
		l := ring[idx]
		l.deficit = min(l.deficit+quantum, 2*quantum)
		if l.visits++; l.visits >= l.key.ten.weight {
			l.visits, idx = 0, (idx+1)%len(ring)
		}
		if l.deficit >= quantum {
			s.cursor[class] = idx
			return l
		}
	}
}

// take pops the next batch: whole requests of ONE lane in FIFO order until
// maxBatch pairs (also the DRR quantum) are covered. The lane is nil only
// when nothing is queued.
func (s *laneSched) take(maxBatch int) (*lane, []*coalesceWaiter, int) {
	l := s.pick(maxBatch)
	if l == nil {
		return nil, nil, 0
	}
	n, npairs := 0, 0
	for n < len(l.waiters) && npairs < maxBatch {
		npairs += len(l.waiters[n].in)
		n++
	}
	ws := slices.Clone(l.waiters[:n])
	l.waiters = slices.Delete(l.waiters, 0, n) // also clears the refs past the new end
	// DRR service accounting: debit what the batch actually took.
	l.deficit -= npairs
	s.charge(l, -npairs)
	return l, ws, npairs
}

// queuedRequests counts the waiters across all lanes.
func (s *laneSched) queuedRequests() int {
	n := 0
	for _, l := range s.lanes {
		n += len(l.waiters)
	}
	return n
}
