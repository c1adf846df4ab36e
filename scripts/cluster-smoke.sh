#!/usr/bin/env bash
# Cluster-level smoke test: boot one logan-serve router (-cluster, durable
# queue, shared token) plus two logan-worker processes, and drive the
# scale-out failure path end to end. Asserts the readiness gate (503 with
# no workers, 200 once one has polled: a worker has no handshake, its
# name rides each poll), that the /metrics rollup carries worker="w1"
# and worker="w2" series, that an Idempotency-Key retry maps onto the
# original job, and — the core of it — that SIGKILLing the
# worker that holds a job's lease mid-run requeues the job exactly once
# onto the survivor, whose PAF is byte-identical to an offline cmd/bella
# run of the same data set. Run from the repo root; CI runs it after the
# serve smoke.
set -euo pipefail

ADDR="127.0.0.1:18090"
TOKEN="smoke-secret"
WORK="$(mktemp -d)"
trap 'kill "${SERVER_PID:-}" "${W1_PID:-}" "${W2_PID:-}" 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$WORK/logan-serve" ./cmd/logan-serve
go build -o "$WORK/logan-worker" ./cmd/logan-worker
go build -o "$WORK/bella" ./cmd/bella

# Deterministic data set shared by the offline and clustered runs; x=500
# keeps the served job running long enough to kill its worker mid-lease.
"$WORK/bella" -preset tiny -seed 1 -dump-reads "$WORK/reads.fa" >/dev/null
"$WORK/bella" -fasta "$WORK/reads.fa" -cov 5 -errrate 0.15 -x 500 -minov 500 \
  -paf "$WORK/offline.paf" >/dev/null

# Short lease TTL so worker death is detected in hundreds of ms, not 10s.
"$WORK/logan-serve" -addr "$ADDR" -backend cpu \
  -cluster -cluster-queue "$WORK/queue.wal" -cluster-token "$TOKEN" \
  -lease-ttl 300ms &
SERVER_PID=$!

for _ in $(seq 1 100); do
  if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then
    break
  fi
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "cluster-smoke: router exited before becoming healthy" >&2
    exit 1
  fi
  sleep 0.1
done
curl -sf "http://$ADDR/healthz" >/dev/null

# No workers yet: alive but not ready.
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/readyz")
if [ "$code" != "503" ]; then
  echo "cluster-smoke: /readyz with no workers returned $code, want 503" >&2
  exit 1
fi

"$WORK/logan-worker" -router "http://$ADDR" -name w1 -token "$TOKEN" &
W1_PID=$!
"$WORK/logan-worker" -router "http://$ADDR" -name w2 -token "$TOKEN" &
W2_PID=$!

# Readiness flips once the engine is warm and a worker has polled.
READY=""
for _ in $(seq 1 100); do
  code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/readyz")
  if [ "$code" = "200" ]; then
    READY=yes
    break
  fi
  sleep 0.1
done
if [ -z "$READY" ]; then
  echo "cluster-smoke: /readyz never reached 200 with workers polling" >&2
  exit 1
fi

# The rollup shows both workers once their polls carry snapshots.
ROLLUP=""
for _ in $(seq 1 100); do
  curl -sf -o "$WORK/metrics.txt" "http://$ADDR/metrics"
  if grep -q 'worker="w1"' "$WORK/metrics.txt" && grep -q 'worker="w2"' "$WORK/metrics.txt"; then
    ROLLUP=yes
    break
  fi
  sleep 0.1
done
if [ -z "$ROLLUP" ]; then
  echo "cluster-smoke: /metrics rollup never showed both workers" >&2
  exit 1
fi

# Submit with an Idempotency-Key; the immediate retry must map onto the
# original job instead of double-executing.
JOB=$(curl -sf -X POST -H 'Idempotency-Key: smoke-retry-1' \
  --data-binary "@$WORK/reads.fa" \
  "http://$ADDR/jobs?x=500&minOverlap=500&coverage=5&errorRate=0.15")
JOB_ID=$(echo "$JOB" | grep -o '"id":"[0-9a-f]*"' | cut -d'"' -f4)
if [ -z "$JOB_ID" ]; then
  echo "cluster-smoke: POST /jobs returned no id: $JOB" >&2
  exit 1
fi
RETRY_HEADERS=$(curl -sf -D - -o "$WORK/retry.json" -X POST \
  -H 'Idempotency-Key: smoke-retry-1' --data-binary "@$WORK/reads.fa" \
  "http://$ADDR/jobs?x=500&minOverlap=500&coverage=5&errorRate=0.15")
RETRY_ID=$(grep -o '"id":"[0-9a-f]*"' "$WORK/retry.json" | cut -d'"' -f4)
if [ "$RETRY_ID" != "$JOB_ID" ]; then
  echo "cluster-smoke: idempotent retry created job $RETRY_ID, want $JOB_ID" >&2
  exit 1
fi
if ! echo "$RETRY_HEADERS" | grep -qi '^X-Logan-Replayed: true'; then
  echo "cluster-smoke: retry response missing X-Logan-Replayed: true" >&2
  exit 1
fi

# Wait for a worker to take the lease, then SIGKILL that worker: no fail
# report, no release — the router must discover the death by lease expiry
# and requeue onto the survivor.
VICTIM=""
for _ in $(seq 1 500); do
  STATUS=$(curl -sf "http://$ADDR/jobs/$JOB_ID")
  STATE=$(echo "$STATUS" | grep -o '"state":"[a-z]*"' | cut -d'"' -f4)
  WORKER=$(echo "$STATUS" | grep -o '"worker":"[^"]*"' | cut -d'"' -f4)
  if [ "$STATE" = "running" ] && [ -n "$WORKER" ]; then
    VICTIM="$WORKER"
    break
  fi
  case "$STATE" in
    done|failed|canceled)
      echo "cluster-smoke: job reached $STATE before any worker could be killed: $STATUS" >&2
      exit 1 ;;
  esac
  sleep 0.02
done
if [ -z "$VICTIM" ]; then
  echo "cluster-smoke: job never started running" >&2
  exit 1
fi
case "$VICTIM" in
  w1) kill -9 "$W1_PID"; W1_PID=""; SURVIVOR="w2" ;;
  w2) kill -9 "$W2_PID"; W2_PID=""; SURVIVOR="w1" ;;
  *)
    echo "cluster-smoke: job leased by unknown worker '$VICTIM'" >&2
    exit 1 ;;
esac
echo "cluster-smoke: killed $VICTIM mid-lease, expecting $SURVIVOR to finish"

STATE=""
for _ in $(seq 1 600); do
  STATUS=$(curl -sf "http://$ADDR/jobs/$JOB_ID")
  STATE=$(echo "$STATUS" | grep -o '"state":"[a-z]*"' | cut -d'"' -f4)
  case "$STATE" in
    done) break ;;
    failed|canceled)
      echo "cluster-smoke: job reached $STATE after the kill: $STATUS" >&2
      exit 1 ;;
  esac
  sleep 0.1
done
if [ "$STATE" != "done" ]; then
  echo "cluster-smoke: job still '$STATE' 60s after the kill" >&2
  exit 1
fi

FINISHER=$(echo "$STATUS" | grep -o '"worker":"[^"]*"' | cut -d'"' -f4)
REQUEUES=$(echo "$STATUS" | grep -o '"requeues":[0-9]*' | cut -d: -f2)
if [ "$FINISHER" != "$SURVIVOR" ]; then
  echo "cluster-smoke: job finished by '$FINISHER', want survivor $SURVIVOR" >&2
  exit 1
fi
if [ "${REQUEUES:-0}" -ne 1 ]; then
  echo "cluster-smoke: job requeued ${REQUEUES:-0} times, want exactly 1" >&2
  exit 1
fi

# The surviving worker's output is byte-identical to the offline run.
curl -sf "http://$ADDR/jobs/$JOB_ID/paf" -o "$WORK/served.paf"
if ! cmp -s "$WORK/offline.paf" "$WORK/served.paf"; then
  echo "cluster-smoke: clustered PAF differs from the offline cmd/bella run:" >&2
  diff "$WORK/offline.paf" "$WORK/served.paf" | head -5 >&2
  exit 1
fi
RECORDS=$(wc -l < "$WORK/served.paf")

# The /statz cluster block recorded the expiry and the requeue.
STATZ=$(curl -sf "http://$ADDR/statz")
requeues=$(echo "$STATZ" | grep -o '"requeues":[0-9]*' | head -1 | cut -d: -f2)
expired=$(echo "$STATZ" | grep -o '"leaseExpired":[0-9]*' | cut -d: -f2)
if [ -z "$requeues" ] || [ "$requeues" -lt 1 ] || [ -z "$expired" ] || [ "$expired" -lt 1 ]; then
  echo "cluster-smoke: statz cluster block missing the requeue (requeues=${requeues:-missing}, leaseExpired=${expired:-missing}): $STATZ" >&2
  exit 1
fi

# Graceful teardown: worker first (releases cleanly), then the router.
[ -n "${W1_PID:-}" ] && { kill -TERM "$W1_PID"; wait "$W1_PID" || true; W1_PID=""; }
[ -n "${W2_PID:-}" ] && { kill -TERM "$W2_PID"; wait "$W2_PID" || true; W2_PID=""; }
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=""
echo "cluster-smoke: OK (killed $VICTIM, $SURVIVOR finished after 1 requeue, $RECORDS byte-identical PAF records)"
