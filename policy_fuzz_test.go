package logan

import "testing"

// FuzzLaneScheduler drives laneSched with an arbitrary sequence of
// enqueue / abandon / take over three tenants of weights 1..3, two
// classes and two configurations, with request sizes below the quantum,
// and checks the scheduler's bookkeeping against a plain FIFO model after
// every step. Each operation is two bytes: the first picks the operation
// (low two bits: 0, 1 enqueue, 2 abandon, 3 take) and the lane (bits 2-3
// tenant, 4 class, 5 config), the second the request size or which queued
// waiter to abandon. The seed corpus is testdata/fuzz/FuzzLaneScheduler.
func FuzzLaneScheduler(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		const quantum = 8
		tenants := [3]*Tenant{simTenant("w1", 1), simTenant("w2", 2), simTenant("w3", 3)}
		configs := [2]Config{cfgT, DefaultConfig(77)}
		s := newLaneSched()
		model := make(map[laneKey][]*coalesceWaiter) // FIFO per lane, empty lanes deleted
		passOver := 0

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], int(data[i+1])
			cfg := configs[op>>5&1]
			key := laneKey{ten: tenants[int(op>>2&3)%len(tenants)], class: priorityClass(op >> 4 & 1), cfg: cfg.key()}
			switch op & 3 {
			case 0, 1:
				w := blankWaiter(1 + arg%(quantum-1))
				s.enqueue(key, w)
				model[key] = append(model[key], w)
			case 2:
				// Abandon the arg-th waiter of the lane, or — past its end —
				// one that was never queued.
				w, queued := blankWaiter(1), false
				if q := model[key]; arg < len(q) {
					w, queued = q[arg], true
					if model[key] = append(q[:arg:arg], q[arg+1:]...); len(q) == 1 {
						delete(model, key)
					}
				}
				if s.abandon(key, w) != queued {
					t.Fatalf("step %d: abandon of a waiter that was queued=%v reported otherwise", i/2, queued)
				}
			case 3:
				bulkQueued := len(s.rings[classBulk]) > 0
				l, ws, n := s.take(quantum)
				if l == nil {
					if len(model) != 0 || ws != nil || n != 0 {
						t.Fatalf("step %d: take found nothing with %d lanes queued", i/2, len(model))
					}
					break
				}
				// Whole requests of one lane, FIFO, covering the quantum or
				// the whole lane, and no more requests than that needs.
				q, sum := model[l.key], 0
				if len(ws) == 0 || len(ws) > len(q) {
					t.Fatalf("step %d: batch of %d requests from a lane of %d", i/2, len(ws), len(q))
				}
				for j, w := range ws {
					if w != q[j] {
						t.Fatalf("step %d: batch request %d is not the lane's %d-th in FIFO order", i/2, j, j)
					}
					if sum >= quantum {
						t.Fatalf("step %d: batch took request %d with %d pairs already covered", i/2, j, sum)
					}
					sum += len(w.in)
				}
				if sum != n || (n < quantum && len(ws) != len(q)) {
					t.Fatalf("step %d: batch of %d pairs (reported %d) leaves %d requests queued", i/2, sum, n, len(q)-len(ws))
				}
				if model[l.key] = q[len(ws):]; len(ws) == len(q) {
					delete(model, l.key)
				}
				if bulkQueued && l.key.class == classInteractive {
					if passOver++; passOver > maxBulkPassOver {
						t.Fatalf("step %d: bulk passed over %d batches running", i/2, passOver)
					}
				} else {
					passOver = 0
				}
			}
			checkLaneSched(t, &s, model, quantum)
		}
	})
}

// checkLaneSched compares the scheduler's state with the model's.
func checkLaneSched(t *testing.T, s *laneSched, model map[laneKey][]*coalesceWaiter, quantum int) {
	t.Helper()
	total := 0
	perTenant, perInter := make(map[*Tenant]int), make(map[*Tenant]int)
	for key, q := range model {
		l := s.lanes[key]
		if l == nil || len(l.waiters) != len(q) {
			t.Fatalf("lane %v: scheduler holds %v, model %d requests", key, l, len(q))
		}
		n := 0
		for j, w := range q {
			if l.waiters[j] != w {
				t.Fatalf("lane %v: request %d out of FIFO order", key, j)
			}
			n += len(w.in)
		}
		if l.pending != n {
			t.Fatalf("lane %v: pending %d, want %d", key, l.pending, n)
		}
		if l.deficit <= -quantum || l.deficit > 2*quantum {
			t.Fatalf("lane %v: deficit %d outside (-%d, %d]", key, l.deficit, quantum, 2*quantum)
		}
		if l.visits < 0 || l.visits >= key.ten.weight {
			t.Fatalf("lane %v: %d visits this rotation at weight %d", key, l.visits, key.ten.weight)
		}
		total += n
		perTenant[key.ten] += n
		if key.class == classInteractive {
			perInter[key.ten] += n
		}
	}
	if len(s.lanes) != len(model) || s.pending != total {
		t.Fatalf("scheduler holds %d lanes and %d pairs, model %d and %d", len(s.lanes), s.pending, len(model), total)
	}
	if len(s.tenPending) != len(perTenant) {
		t.Fatalf("tenPending %v, want exactly the tenants with queued pairs %v", s.tenPending, perTenant)
	}
	for ten, n := range perTenant {
		if s.tenPending[ten] != n {
			t.Fatalf("tenant %s: pending %d, want %d", ten.name, s.tenPending[ten], n)
		}
	}
	if len(s.tenInter) != len(perInter) {
		t.Fatalf("tenInter %v, want exactly the tenants with queued interactive pairs %v", s.tenInter, perInter)
	}
	for ten, n := range perInter {
		if s.tenInter[ten] != n {
			t.Fatalf("tenant %s: interactive pending %d, want %d", ten.name, s.tenInter[ten], n)
		}
	}
	// A lane is in its class ring exactly while it is non-empty.
	inRings := 0
	for class, ring := range s.rings {
		for _, l := range ring {
			if s.lanes[l.key] != l || int(l.key.class) != class {
				t.Fatalf("class %d ring holds lane %v, which is not a live lane of that class", class, l.key)
			}
		}
		inRings += len(ring)
		if c := s.cursor[class]; c < 0 || c >= max(len(ring), 1) {
			t.Fatalf("class %d cursor %d outside a ring of %d", class, c, len(ring))
		}
	}
	if inRings != len(s.lanes) {
		t.Fatalf("%d lanes in rings, %d live", inRings, len(s.lanes))
	}
}
