package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"logan"
	"logan/internal/cluster"
	"logan/internal/cluster/queue"
)

// updateFixtures rewrites the committed wire fixtures instead of
// comparing against them. They were generated at the commit before the
// parameter table landed (PR 19) and pin its bytes: regenerate only in a
// change that means to move the wire format.
var updateFixtures = os.Getenv("LOGAN_UPDATE_FIXTURES") != ""

// fixtureStatuses are the job states whose GET /jobs/{id} rendering is
// pinned: freshly queued (no progress yet), running mid-alignment on a
// cluster worker after one requeue, done, and failed.
func fixtureStatuses() []cluster.JobStatus {
	t0 := time.Date(2026, 7, 26, 12, 0, 0, 0, time.UTC)
	running := cluster.Progress{
		Stage: "align", ReadsParsed: 412, ReliableKmers: 3120, CandidatePairs: 874,
		ExtensionsDone: 512, ExtensionsTotal: 874, Shed: 2, Retries: 2,
	}
	done := running
	done.Stage, done.ExtensionsDone, done.Overlaps = "done", 874, 391
	return []cluster.JobStatus{
		{ID: "e3b0c44298fc1c14", State: cluster.StateQueued, Created: t0},
		{ID: "e3b0c44298fc1c14", State: cluster.StateRunning, Progress: running, Worker: "w2", Requeues: 1,
			Created: t0, Started: t0.Add(200 * time.Millisecond)},
		{ID: "e3b0c44298fc1c14", State: cluster.StateDone, Progress: done,
			Overlaps: 391, Reads: 412, Cells: 73_400_000, PAFBytes: 40_960,
			Created: t0, Started: t0.Add(200 * time.Millisecond), Finished: t0.Add(3 * time.Second)},
		{ID: "e3b0c44298fc1c14", State: cluster.StateFailed, Error: "logan: fasta: record 3: invalid base",
			Progress: cluster.Progress{Stage: "ingest", ReadsParsed: 2},
			Created:  t0, Started: t0.Add(time.Millisecond), Finished: t0.Add(2 * time.Millisecond)},
	}
}

// TestJobStatusFixture pins the GET /jobs/{id} body byte for byte to
// what the commit before the parameter table emitted for the same job
// states (testdata/job_status.jsonl, one body per line).
func TestJobStatusFixture(t *testing.T) {
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	for _, st := range fixtureStatuses() {
		if err := enc.Encode(st); err != nil {
			t.Fatal(err)
		}
	}
	const path = "testdata/job_status.jsonl"
	if updateFixtures {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("GET /jobs/{id} bodies moved:\n got %s\nwant %s", got.Bytes(), want)
	}
}

// TestClusterReplaysParentSpec feeds the router a write-ahead queue whose
// one record carries a Spec header written by the commit before the
// parameter table (internal/cluster/testdata/spec_header.json): the job
// must come back queued under its id, and a worker must finish it with
// the PAF the header's configuration produces offline.
func TestClusterReplaysParentSpec(t *testing.T) {
	fasta := jobsTestFasta(t, 22, 30_000)
	refCfg := logan.DefaultOverlapConfig(5, 0.12, 20)
	refCfg.MinOverlap = 400

	const path = "../../internal/cluster/testdata/spec_header.json"
	if updateFixtures {
		hdr, err := json.Marshal(&cluster.Spec{
			ID: "0123456789abcdef", Tenant: "acme", IdempotencyKey: "retry-7",
			Config: cluster.ConfigFromOverlap(refCfg),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, hdr, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	hdr, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := binary.LittleEndian.AppendUint32(nil, uint32(len(hdr)))
	payload = append(append(payload, hdr...), fasta...)

	queuePath := filepath.Join(t.TempDir(), "queue.wal")
	wal, _, err := queue.Open(queuePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.Append("0123456789abcdef", payload); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	srv, _, _ := clusterTestServer(t, queuePath, nil)
	st, code := getStatus(t, srv.URL, "0123456789abcdef")
	if code != http.StatusOK || st.State != cluster.StateQueued {
		t.Fatalf("parent-written record did not replay: status %d, %+v", code, st)
	}
	startWorker(t, srv.URL, "w1")
	fin := waitJob(t, srv.URL, st.ID, 60*time.Second)
	if fin.State != cluster.StateDone {
		t.Fatalf("replayed job finished %s: %s", fin.State, fin.Error)
	}
	if got, want := getPAF(t, srv.URL, st.ID), offlinePAF(t, fasta, refCfg); !bytes.Equal(got, want) {
		t.Errorf("PAF of the parent-written spec diverges from the offline pipeline (%d vs %d bytes)", len(got), len(want))
	}
}
