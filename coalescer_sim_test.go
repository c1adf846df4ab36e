package logan

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// A discrete-event replay of overload traces through the real policy code
// — laneSched.submit (admit, then Tenant.takePairs, then enqueue) and
// laneSched.take — against a fake backend that drains a fixed number of
// pairs per second, in virtual time: no goroutines, no sleeps, no engine.
// Open-loop sources arrive on a Poisson schedule; closed-loop ones are
// pipelines keeping one extension chunk in flight.
// What the Coalescer adds around the policy (lock, channels, cache filter,
// telemetry) is not modeled; the drain-rate estimate is exact once the
// first batch has completed and zero before, as in the mechanism.

// The traces' common scale: 16-pair requests, 8 to a batch, a batch served
// in 1.28ms, and a delay target worth 2000 pairs (15.6 batches) of queue.
const (
	simDrain    = 100_000.0 // pairs/s
	simBatch    = 128
	simReqPairs = 16
	simTarget   = 20 * time.Millisecond
	simLength   = 600 * time.Millisecond
)

// simBatchTime is the service time of one full batch.
var simBatchTime = time.Duration(simBatch / simDrain * float64(time.Second))

// simPhase is one piece of a source's arrival schedule: until the virtual
// time `until`, requests arrive as a Poisson process offering `load` times
// the backend's drain rate.
type simPhase struct {
	until time.Duration
	load  float64
}

// simSource is one client population: a tenant's stream of same-size
// requests in one class and configuration (so one lane).
type simSource struct {
	ten    *Tenant
	class  priorityClass
	cfg    Config // cfgT when zero
	pairs  int    // per request; simReqPairs when 0
	phases []simPhase
	// deadline, when positive, is each request's time budget.
	deadline time.Duration
	// closed makes the source a closed loop with no phases: its first
	// request arrives at time 0 and each next one when the previous
	// completes, or one batch time after it was shed (the pipelines'
	// extend path retrying).
	closed bool
}

// key is the lane the source's requests queue on.
func (s simSource) key() laneKey {
	if s.cfg == (Config{}) {
		s.cfg = cfgT
	}
	return laneKey{ten: s.ten, class: s.class, cfg: s.cfg.key()}
}

// simLane is what the replay measured for one lane.
type simLane struct {
	offered, enqueued, served, direct int // pairs
	shed                              [len(sheds)]int
	lastShed                          time.Duration
	waits                             []time.Duration // queue wait of every request taken
	tokens                            float64         // drawn from the tenant's bucket by this lane
}

// simBatchRec is one served batch.
type simBatchRec struct {
	done  time.Duration
	pairs int
	class priorityClass
}

type simResult struct {
	lanes       map[laneKey]*simLane
	order       []laneKey // first-arrival order, for stable reports
	batches     []simBatchRec
	maxPassOver int // longest run of interactive batches while bulk was queued
	maxQueued   int
}

// bucketAt is the tenant's token count as of now, without drawing on it.
func bucketAt(t *Tenant, now time.Time) float64 {
	return min(t.burst, t.tokens+t.rate*now.Sub(t.last).Seconds())
}

// simulate replays the sources for simLength of virtual time under the
// admission target.
func simulate(seed int64, target time.Duration, sources []simSource) *simResult {
	rng := rand.New(rand.NewSource(seed))
	epoch := time.Unix(1_000_000, 0)
	res := &simResult{lanes: make(map[laneKey]*simLane)}
	q := newLaneSched()

	// next[i] is source i's next arrival; phase[i] the schedule piece it
	// falls in. Exponential gaps are memoryless, so a gap that crosses a
	// phase boundary is redrawn from the boundary at the new rate.
	next := make([]time.Duration, len(sources))
	phase := make([]int, len(sources))
	advance := func(i int, from time.Duration) {
		src := &sources[i]
		for phase[i] < len(src.phases) {
			ph := src.phases[phase[i]]
			if ph.load > 0 {
				perSec := ph.load * simDrain / float64(src.pairs)
				if at := from + time.Duration(rng.ExpFloat64()/perSec*float64(time.Second)); at < ph.until {
					next[i] = at
					return
				}
			}
			from = ph.until
			phase[i]++
		}
		next[i] = math.MaxInt64
	}
	for i := range sources {
		if sources[i].pairs == 0 {
			sources[i].pairs = simReqPairs
		}
		if sources[i].cfg == (Config{}) {
			sources[i].cfg = cfgT
		}
		if !sources[i].closed {
			advance(i, 0)
		}
	}
	// owner maps a closed-loop source's queued or running request back to
	// the source.
	owner := make(map[*coalesceWaiter]int)
	lane := func(k laneKey) *simLane {
		l := res.lanes[k]
		if l == nil {
			l = &simLane{}
			res.lanes[k] = l
			res.order = append(res.order, k)
		}
		return l
	}

	var (
		busy      bool
		busyUntil time.Duration
		inFlight  simBatchRec
		running   []*coalesceWaiter // the requests of inFlight
		rate      float64           // the drain estimate admission sees
		passOver  int
	)
	for {
		// The earliest event: a completion goes before an arrival at the
		// same instant.
		src := -1
		at := time.Duration(math.MaxInt64)
		for i, n := range next {
			if n < at {
				src, at = i, n
			}
		}
		if busy && busyUntil <= at {
			src, at = -1, busyUntil
		}
		if at >= simLength {
			return res
		}
		now := epoch.Add(at)
		if src < 0 {
			busy, rate = false, simDrain
			if inFlight.pairs > 0 {
				inFlight.done = at
				res.batches = append(res.batches, inFlight)
			}
			for _, w := range running {
				if i, ok := owner[w]; ok {
					next[i] = at
					delete(owner, w)
				}
			}
			running = nil
		} else {
			s := &sources[src]
			key := s.key()
			st := lane(key)
			st.offered += s.pairs
			before := bucketAt(s.ten, now)
			if s.pairs >= simBatch {
				// Engine-sized: past the queue, metered by the engine
				// (Aligner.Align), run behind whatever is in service.
				if s.ten.takePairs(s.pairs, now) {
					st.direct += s.pairs
					if !busy {
						busy, busyUntil, inFlight = true, at, simBatchRec{}
					}
					busyUntil += time.Duration(float64(s.pairs) / simDrain * float64(time.Second))
				} else {
					st.shed[shedQuota]++
					st.lastShed = at
				}
			} else {
				adm := admission{floor: simBatch, rate: rate, target: target, timeLeft: noDeadline}
				if s.deadline > 0 {
					adm.timeLeft = s.deadline
				}
				w := blankWaiter(s.pairs)
				if reason, ok := q.submit(key, w, adm, now); ok {
					st.enqueued += s.pairs
					if s.closed {
						owner[w], next[src] = src, math.MaxInt64
					}
				} else {
					st.shed[reason]++
					st.lastShed = at
					if s.closed {
						next[src] = at + simBatchTime
					}
				}
			}
			st.tokens += before - bucketAt(s.ten, now)
			res.maxQueued = max(res.maxQueued, q.pending)
			if !s.closed {
				advance(src, at)
			}
		}
		if !busy {
			bulkQueued := len(q.rings[classBulk]) > 0
			if l, ws, n := q.take(simBatch); l != nil {
				if bulkQueued && l.key.class == classInteractive {
					passOver++
					res.maxPassOver = max(res.maxPassOver, passOver)
				} else {
					passOver = 0
				}
				st := lane(l.key)
				st.served += n
				for _, w := range ws {
					st.waits = append(st.waits, now.Sub(w.enq))
				}
				busy, busyUntil = true, at+time.Duration(float64(n)/simDrain*float64(time.Second))
				inFlight, running = simBatchRec{pairs: n, class: l.key.class}, ws
			}
		}
	}
}

// wait returns the q-quantile of the lanes' queue waits (all lanes when
// none is named).
func (r *simResult) wait(q float64, keys ...laneKey) time.Duration {
	if len(keys) == 0 {
		keys = r.order
	}
	var all []time.Duration
	for _, k := range keys {
		all = append(all, r.lanes[k].waits...)
	}
	if len(all) == 0 {
		return 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all[min(int(q*float64(len(all))), len(all)-1)]
}

// goodput is the pairs of batches completed in [from, to) over what the
// backend could have drained in that window.
func (r *simResult) goodput(from, to time.Duration) float64 {
	pairs := 0
	for _, b := range r.batches {
		if b.done >= from && b.done < to {
			pairs += b.pairs
		}
	}
	return float64(pairs) / (simDrain * (to - from).Seconds())
}

func (r *simResult) sum(f func(*simLane) int) int {
	n := 0
	for _, l := range r.lanes {
		n += f(l)
	}
	return n
}

// simReport collects one row per scenario; TestCoalescerOverloadReplay
// logs the table (go test -v), which CHANGES.md records.
type simReport struct{ rows []string }

// add reports a scenario: recover is the time from the burst's end to the
// last shed (negative: no burst), and waits names the lanes whose queue
// waits are reported (none: all of them).
func (rep *simReport) add(name string, r *simResult, recover time.Duration, waits ...laneKey) {
	unit := func(d time.Duration) float64 { return float64(d) / float64(simTarget) }
	served := r.sum(func(l *simLane) int { return l.served + l.direct })
	var shares []string
	for _, k := range r.order {
		shares = append(shares, fmt.Sprintf("%s/%s w%d %.3f", k.ten.name, k.class, k.ten.weight,
			float64(r.lanes[k].served+r.lanes[k].direct)/float64(max(served, 1))))
	}
	rec := "-"
	if recover >= 0 {
		rec = fmt.Sprintf("%.2f", unit(recover))
	}
	rep.rows = append(rep.rows, fmt.Sprintf("%-22s | %5.2f | %5.2f | %5d %5d %5d | %5.2f %5.2f %5.2f | %4s | %s",
		name,
		float64(r.sum(func(l *simLane) int { return l.offered }))/(simDrain*simLength.Seconds()),
		r.goodput(0, simLength),
		r.sum(func(l *simLane) int { return l.shed[shedDelay] }),
		r.sum(func(l *simLane) int { return l.shed[shedDeadline] }),
		r.sum(func(l *simLane) int { return l.shed[shedQuota] }),
		unit(r.wait(0.5, waits...)), unit(r.wait(0.99, waits...)), unit(r.wait(1, waits...)), rec, strings.Join(shares, ", ")))
}

// checkConservation is the standing assertion of every scenario: a tenant's
// bucket is drawn on for exactly the pairs that were queued or run direct
// — never for a request that was shed.
func checkConservation(t *testing.T, name string, r *simResult) {
	t.Helper()
	for k, l := range r.lanes {
		if k.ten.rate <= 0 {
			continue
		}
		if want := float64(l.enqueued + l.direct); math.Abs(l.tokens-want) > 1e-6*max(want, 1) {
			t.Errorf("%s: tenant %s drew %.3f tokens for %v pairs queued or run direct", name, k.ten.name, l.tokens, want)
		}
	}
}

func steady(load float64) []simPhase { return []simPhase{{simLength, load}} }

func simTenant(name string, weight int) *Tenant {
	return NewTenant(TenantOptions{Name: name, Weight: weight})
}

// TestCoalescerOverloadReplay is the specification of the coalescer's
// overload behaviour: each scenario is a seeded trace replayed through the
// real admission sequence and lane scheduler, with its assertions.
func TestCoalescerOverloadReplay(t *testing.T) {
	rep := &simReport{}
	run := func(name string, seed int64, sources ...simSource) *simResult {
		r := simulate(seed, simTarget, sources)
		checkConservation(t, name, r)
		return r
	}
	key := simSource.key
	bound := simTarget + simBatchTime

	// (a) Under capacity nothing is shed and nothing waits long.
	{
		r := run("a", 1, simSource{ten: simTenant("a", 1), phases: steady(0.8)})
		rep.add("a 0.8x one tenant", r, -1)
		if n := r.sum(func(l *simLane) int { return l.shed[shedDelay] + l.shed[shedDeadline] + l.shed[shedQuota] }); n != 0 {
			t.Errorf("a: %d requests shed at 0.8x load", n)
		}
		if w := r.wait(1); w > simTarget {
			t.Errorf("a: max queue wait %v exceeds the %v target at 0.8x load", w, simTarget)
		}
	}

	// (b) At twice capacity the backend stays saturated, the excess is shed
	// for delay, and what is admitted waits no longer than the target plus
	// the batch in service when it arrived.
	{
		r := run("b", 2, simSource{ten: simTenant("a", 1), phases: steady(2)})
		rep.add("b 2x one tenant", r, -1)
		if g := r.goodput(simTarget, simLength); g < 0.95 {
			t.Errorf("b: goodput %.3f of drain at 2x load, want >= 0.95", g)
		}
		if d, o := r.sum(func(l *simLane) int { return l.shed[shedDelay] }), r.sum(func(l *simLane) int { return l.shed[shedDeadline] + l.shed[shedQuota] }); d == 0 || o != 0 {
			t.Errorf("b: %d delay sheds, %d others; want every shed attributed to delay", d, o)
		}
		if w := r.wait(1); w > bound {
			t.Errorf("b: an admitted request waited %v, want <= %v", w, bound)
		}
		if r.maxQueued > int(simDrain*simTarget.Seconds()) {
			t.Errorf("b: queue reached %d pairs, past the target's worth", r.maxQueued)
		}
	}

	// (c) Three saturating tenants are served in proportion to their weights.
	{
		srcs := []simSource{
			{ten: simTenant("w1", 1), phases: steady(1)},
			{ten: simTenant("w2", 2), phases: steady(1)},
			{ten: simTenant("w4", 4), phases: steady(1)},
		}
		r := run("c", 3, srcs...)
		rep.add("c 3 tenants 1:2:4", r, -1)
		served := r.sum(func(l *simLane) int { return l.served })
		for _, s := range srcs {
			share, want := float64(r.lanes[key(s)].served)/float64(served), float64(s.ten.weight)/7
			if math.Abs(share-want) > 0.1*want {
				t.Errorf("c: tenant %s served %.3f of the pairs, want %.3f within 10%%", s.ten.name, share, want)
			}
		}
		// A tenant is served once per rotation of 1+2+4 batches.
		if w, rotation := r.wait(1), simTarget+7*simBatchTime; w > rotation {
			t.Errorf("c: an admitted request waited %v, want <= %v", w, rotation)
		}
	}

	// (d) A flooder beside three polite tenants of unequal weight, each
	// offering a fifth of its share: the flooder is shed, they never are.
	{
		flood := simSource{ten: simTenant("flood", 1), phases: steady(3)}
		polite := []simSource{
			{ten: simTenant("p1", 1), phases: steady(0.2 * 1 / 7)},
			{ten: simTenant("p2", 2), phases: steady(0.2 * 2 / 7)},
			{ten: simTenant("p3", 3), phases: steady(0.2 * 3 / 7)},
		}
		r := run("d", 4, append(polite, flood)...)
		rep.add("d flooder + 3 polite", r, -1)
		rep.add("d  ... polite tenants", r, -1, key(polite[0]), key(polite[1]), key(polite[2]))
		if r.lanes[key(flood)].shed[shedDelay] == 0 {
			t.Error("d: the flooder was never shed")
		}
		for _, s := range polite {
			l := r.lanes[key(s)]
			if n := l.shed[shedDelay] + l.shed[shedDeadline] + l.shed[shedQuota]; n != 0 {
				t.Errorf("d: polite tenant %s shed %d times", s.ten.name, n)
			}
			if w := r.wait(0.99, key(s)); w > simTarget {
				t.Errorf("d: polite tenant %s p99 wait %v exceeds the target", s.ten.name, w)
			}
		}
		if g := r.goodput(simTarget, simLength); g < 0.95 {
			t.Errorf("d: goodput %.3f of drain, want >= 0.95", g)
		}
		// Measured, not promised by the target: the flooder fills the whole
		// queue while it is the only active tenant, then drains it at what
		// the polite tenants (0.2 x 6/7 of the rate) leave over.
		left := 1 - 0.2*6/7
		if w, limit := r.wait(1, key(flood)), time.Duration(float64(simTarget)/left)+7*simBatchTime; w > limit {
			t.Errorf("d: a flooder request waited %v, want <= %v", w, limit)
		}
	}

	// (e) A 10x burst five targets long, then half load: shedding stops
	// within one target (plus a batch) of the burst's end.
	{
		from, to := 10*simTarget, 15*simTarget
		r := run("e", 5, simSource{ten: simTenant("a", 1), phases: []simPhase{{from, 0.5}, {to, 10}, {simLength, 0.5}}})
		l := r.lanes[r.order[0]]
		rep.add("e 10x burst of 5 targets", r, l.lastShed-to)
		if l.shed[shedDelay] == 0 {
			t.Error("e: the burst shed nothing")
		}
		if l.lastShed > to+bound {
			t.Errorf("e: still shedding %v after the burst ended, want recovery within %v", l.lastShed-to, bound)
		}
		if g := r.goodput(from+simBatchTime, to); g < 0.95 {
			t.Errorf("e: goodput %.3f of drain over the burst, want >= 0.95", g)
		}
		if w := r.wait(1); w > bound {
			t.Errorf("e: an admitted request waited %v, want <= %v", w, bound)
		}
	}

	// (f) Saturating interactive and bulk traffic: bulk gets every fifth
	// batch, never fewer; and a bulk flood costs light interactive traffic
	// at most one batch of extra wait.
	{
		inter := simSource{ten: simTenant("inter", 1), phases: steady(2)}
		bulk := simSource{ten: simTenant("bulk", 1), class: classBulk, phases: steady(2)}
		r := run("f", 6, inter, bulk)
		rep.add("f interactive+bulk 2x", r, -1, key(inter))
		rep.add("f  ... the bulk lane", r, -1, key(bulk))
		if r.maxPassOver > maxBulkPassOver {
			t.Errorf("f: bulk passed over %d batches running, bound %d", r.maxPassOver, maxBulkPassOver)
		}
		if w := r.wait(1, key(inter)); w > bound {
			t.Errorf("f: an interactive request waited %v, want <= %v", w, bound)
		}
		// Measured, and past the target: admission projects the bulk tenant
		// at its weight share (1/2) of the rate, the class priority serves
		// it one batch in five, so what it admits waits 5/2 targets.
		if w, limit := r.wait(1, key(bulk)), simTarget*(maxBulkPassOver+1)/2+(maxBulkPassOver+1)*simBatchTime; w > limit {
			t.Errorf("f: a bulk request waited %v, want <= %v", w, limit)
		}
		// Skip the start-up, when bulk work may not have queued yet.
		sat := r.batches[len(r.batches)/10:]
		for i := 0; i+maxBulkPassOver < len(sat); i++ {
			nb := 0
			for _, b := range sat[i : i+maxBulkPassOver+1] {
				if b.class == classBulk {
					nb++
				}
			}
			if nb == 0 {
				t.Fatalf("f: no bulk batch among batches %d..%d", i, i+maxBulkPassOver)
			}
		}

		light := simSource{ten: inter.ten, phases: steady(0.3)}
		alone := run("f-alone", 7, light)
		flooded := run("f-flooded", 7, light, bulk)
		rep.add("f 0.3x interactive alone", alone, -1)
		rep.add("f  ... under a bulk flood", flooded, -1, key(light))
		if a, b := alone.wait(0.99, key(light)), flooded.wait(0.99, key(light)); b > a+simBatchTime {
			t.Errorf("f: a bulk flood raised interactive p99 wait from %v to %v, more than one batch (%v)", a, b, simBatchTime)
		}
		if n := flooded.lanes[key(light)].shed[shedDelay]; n != 0 {
			t.Errorf("f: %d interactive requests shed under a bulk flood", n)
		}
	}

	// (g) A tenant metered at a tenth of the drain rate offering three
	// times its quota, engine-sized requests included: it is served its
	// quota plus the burst, and only the bucket ever refuses it.
	{
		const quota, burst = simDrain / 10, 500
		ten := NewTenant(TenantOptions{Name: "metered", PairsPerSec: quota, Burst: burst})
		small := simSource{ten: ten, phases: steady(0.2)}
		large := simSource{ten: ten, cfg: DefaultConfig(77), pairs: simBatch, phases: steady(0.1)}
		r := run("g", 8, small, large)
		rep.add("g quota q, offered 3q", r, -1)
		got := r.sum(func(l *simLane) int { return l.served + l.direct })
		if limit := quota*simLength.Seconds() + burst; float64(got) > limit {
			t.Errorf("g: %d pairs served past a quota worth %.0f", got, limit)
		} else if float64(got) < 0.9*limit {
			t.Errorf("g: %d pairs served, under 90%% of the quota's %.0f", got, limit)
		}
		if d, q := r.sum(func(l *simLane) int { return l.shed[shedDelay] + l.shed[shedDeadline] }), r.sum(func(l *simLane) int { return l.shed[shedQuota] }); d != 0 || q == 0 {
			t.Errorf("g: %d queue sheds, %d quota sheds; want every shed attributed to quota", d, q)
		}
	}

	// (h) At 2x load the queue stands near the target; requests whose own
	// budget is a quarter of it are shed early, for deadline, not queued.
	{
		free := simSource{ten: simTenant("a", 1), phases: steady(1.5)}
		hurried := simSource{ten: free.ten, cfg: DefaultConfig(77), deadline: simTarget / 4, phases: steady(0.5)}
		r := run("h", 9, free, hurried)
		rep.add("h 2x, a quarter hurried", r, -1)
		if r.lanes[key(hurried)].shed[shedDeadline] == 0 {
			t.Error("h: no request shed for an infeasible deadline")
		}
		if n := r.lanes[key(free)].shed[shedDeadline]; n != 0 {
			t.Errorf("h: %d deadline sheds without a deadline", n)
		}
		if w := r.wait(1, key(hurried)); w > simTarget/4+simBatchTime+simBatchTime {
			t.Errorf("h: a request with a %v budget was queued for %v", simTarget/4, w)
		}
	}

	// (i) The served default's shape: one tenant for everything (the open
	// deployment's anonymous one), light interactive traffic, and two
	// pipelines each keeping one extension chunk of half the floor in
	// flight, under a target worth a quarter of the floor (the default
	// 4096-pair floor against the ≈600 pairs 20ms drains). Bulk is served
	// after interactive work, so the chunks must not count against it:
	// nothing interactive is shed, and its p99 wait stays within one batch
	// of the run without the pipelines.
	{
		tight := simBatchTime / 4
		light := simSource{ten: simTenant("anon", 1), phases: steady(0.3)}
		chunk := simSource{ten: light.ten, class: classBulk, pairs: simBatch / 2, closed: true}
		alone := simulate(10, tight, []simSource{light})
		piped := simulate(10, tight, []simSource{light, chunk, chunk})
		checkConservation(t, "i", piped)
		rep.add("i 0.3x, target floor/4", alone, -1)
		rep.add("i  ... beside 2 pipelines", piped, -1, key(light))
		if len(piped.lanes[key(chunk)].waits) == 0 {
			t.Error("i: no extension chunk was served")
		}
		if n := piped.lanes[key(light)].shed; n != [len(sheds)]int{} {
			t.Errorf("i: interactive requests shed beside two pipelines (delay, deadline, quota): %v", n)
		}
		if a, b := alone.wait(0.99, key(light)), piped.wait(0.99, key(light)); b > a+simBatchTime {
			t.Errorf("i: the pipelines raised interactive p99 wait from %v to %v, more than one batch (%v)", a, b, simBatchTime)
		}
	}

	t.Logf("scenario               | offer | goodp | shed: delay deadl quota | wait/target p50 p99 max | recv | share of served pairs\n%s",
		strings.Join(rep.rows, "\n"))
}
