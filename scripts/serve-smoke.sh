#!/usr/bin/env bash
# Serve-level smoke test: boot logan-serve with an API key file, fire 50
# concurrent small /align requests, and assert that
# every request succeeded and that the coalescer actually merged
# cross-request batches (non-zero mergedBatches in /statz). Then drive
# two authenticated tenants and assert the per-tenant metric series and
# the content-addressed result cache (repeated pair -> non-zero cache
# hits), and exercise the async /jobs overlap API end to end: submit a
# small FASTA, poll to completion, assert the PAF is non-empty and
# byte-identical to an offline cmd/bella run on the same file, and that
# DELETE yields 404. Finally exercise the reference-mapping tier: build
# a minimizer index through POST /map/index, map reads through POST /map
# and assert the PAF is byte-identical to an offline cmd/logan-map run
# on the same reference and reads. Run from the repo root; CI runs it
# after the unit tests.
set -euo pipefail

ADDR="127.0.0.1:18080"
WORK="$(mktemp -d)"
BIN="$WORK/logan-serve"
BELLA="$WORK/bella"
LOGAN_MAP="$WORK/logan-map"
trap 'kill "${SERVER_PID:-}" 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$BIN" ./cmd/logan-serve
go build -o "$BELLA" ./cmd/bella
go build -o "$LOGAN_MAP" ./cmd/logan-map
# Two authenticated tenants alongside the anonymous default: alpha
# unlimited, bravo with a generous pairs/sec quota and double weight.
cat > "$WORK/keys.conf" <<'EOF'
# key    tenant  pairsPerSec burst weight
alpha-key alpha
bravo-key bravo  50000 100000 2
EOF

"$BIN" -addr "$ADDR" -backend cpu -api-keys "$WORK/keys.conf" &
SERVER_PID=$!

# Wait for liveness.
for _ in $(seq 1 100); do
  if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then
    break
  fi
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "serve-smoke: server exited before becoming healthy" >&2
    exit 1
  fi
  sleep 0.1
done
curl -sf "http://$ADDR/healthz" >/dev/null

BODY='{"pairs":[{"query":"ACGTACGTACGTACGTACGTACGTACGTACGT","target":"ACGTACGTACGTACGTACGTACGTACGTACGT","seedQ":8,"seedT":8,"seedLen":8}]}'

# 50 concurrent clients; curl -f makes any non-2xx a non-zero exit.
CURL_PIDS=()
for _ in $(seq 1 50); do
  curl -sf -o /dev/null -X POST -H 'Content-Type: application/json' \
    -d "$BODY" "http://$ADDR/align" &
  CURL_PIDS+=($!)
done
FAILED=0
for pid in "${CURL_PIDS[@]}"; do
  wait "$pid" || FAILED=$((FAILED + 1))
done
if [ "$FAILED" -ne 0 ]; then
  echo "serve-smoke: $FAILED of 50 requests failed" >&2
  exit 1
fi

# Request-scoped configuration: the same server must honor per-request
# "x" and "scoring" fields with exact scores. The pair has 4 substitutions
# between two exact runs: with the default X the extension recovers (+4
# over the 8-match seed -> 12), with x=2 the trough prunes it (-> 8), and
# under affine gaps substitutions still beat gaps (-> 12). The BLOSUM62
# query scores identical 16-mers as 2*(4+9+6+5)*2 = 96.
CFG_PAIR='{"query":"AAAAAAAACCCCAAAAAAAA","target":"AAAAAAAAGGGGAAAAAAAA","seedQ":0,"seedT":0,"seedLen":8}'
assert_score() {
  local name="$1" body="$2" want="$3"
  local resp got
  resp=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$body" "http://$ADDR/align") || {
    echo "serve-smoke: $name request failed" >&2; exit 1; }
  got=$(echo "$resp" | grep -o '"score":-\?[0-9]*' | head -1 | cut -d: -f2)
  if [ "$got" != "$want" ]; then
    echo "serve-smoke: $name score $got, want $want ($resp)" >&2
    exit 1
  fi
}
assert_score "default-x"    "{\"pairs\":[$CFG_PAIR]}" 12
assert_score "per-request-x" "{\"pairs\":[$CFG_PAIR],\"x\":2}" 8
assert_score "affine" "{\"pairs\":[$CFG_PAIR],\"scoring\":{\"mode\":\"affine\",\"match\":1,\"mismatch\":-1,\"gapOpen\":-2,\"gapExtend\":-1}}" 12
assert_score "blosum62" '{"pairs":[{"query":"ACGTACGTACGTACGT","target":"ACGTACGTACGTACGT","seedQ":0,"seedT":0,"seedLen":8}],"scoring":{"mode":"blosum62","gap":-6}}' 96

STATZ=$(curl -sf "http://$ADDR/statz")
echo "serve-smoke: statz: $STATZ"

merged=$(echo "$STATZ" | grep -o '"mergedBatches":[0-9]*' | cut -d: -f2)
requests=$(echo "$STATZ" | grep -o '"requests":[0-9]*' | head -1 | cut -d: -f2)
errors=$(echo "$STATZ" | grep -o '"errors":[0-9]*' | head -1 | cut -d: -f2)

if [ -z "$merged" ] || [ "$merged" -eq 0 ]; then
  echo "serve-smoke: no merged batches recorded (mergedBatches=${merged:-missing})" >&2
  exit 1
fi
if [ -z "$requests" ] || [ "$requests" -lt 50 ]; then
  echo "serve-smoke: expected >=50 requests, statz says ${requests:-missing}" >&2
  exit 1
fi
if [ -z "$errors" ] || [ "$errors" -ne 0 ]; then
  echo "serve-smoke: expected 0 errors, statz says ${errors:-missing}" >&2
  exit 1
fi

# --- /metrics ----------------------------------------------------------
# One scrape after the burst: valid content type, every pipeline stage
# histogram populated, and the merge counters moved.
METRICS_CT=$(curl -sf -o "$WORK/metrics.txt" -w '%{content_type}' "http://$ADDR/metrics")
case "$METRICS_CT" in
  "text/plain; version=0.0.4"*) ;;
  *)
    echo "serve-smoke: /metrics content type '$METRICS_CT'" >&2
    exit 1 ;;
esac
for stage in admit coalesce_wait partition kernel scatter; do
  count=$(grep -o "logan_stage_duration_seconds_count{stage=\"$stage\"} [0-9]*" \
    "$WORK/metrics.txt" | awk '{print $2}')
  if [ -z "$count" ] || [ "$count" -eq 0 ]; then
    echo "serve-smoke: stage histogram '$stage' empty (count=${count:-missing})" >&2
    exit 1
  fi
done
prom_nonzero() {
  local pat="$1"
  local total
  total=$(grep -E "^$pat" "$WORK/metrics.txt" | awk '{s += $2} END {printf "%d", s}')
  if [ -z "$total" ] || [ "$total" -eq 0 ]; then
    echo "serve-smoke: metric $pat missing or zero" >&2
    exit 1
  fi
}
prom_nonzero 'logan_coalescer_merged_batches_total'
prom_nonzero 'logan_coalescer_merged_pairs_total '
prom_nonzero 'logan_engine_batches_total '
prom_nonzero 'logan_backend_pairs_total\{backend="cpu"\}'
# The burst is linear-DNA with the default X, inside the vector kernel's
# envelope: the config-keyed selection must have routed it to the vector
# fast path, so the per-variant counters must have moved.
prom_nonzero 'logan_kernel_pairs_total\{variant="vector"\}'
prom_nonzero 'logan_kernel_cells_total\{variant="vector"\}'
prom_nonzero 'logan_http_requests_total '

# --- multi-tenant QoS + result cache -----------------------------------
# Authenticated traffic from two tenants, with alpha repeating the same
# pair: the repeat must be served from the content-addressed cache with
# the same bytes, and the per-tenant series must attribute the traffic.
ALPHA_FIRST=$(curl -sf -X POST -H 'Content-Type: application/json' \
  -H 'X-API-Key: alpha-key' -d "{\"pairs\":[$CFG_PAIR]}" "http://$ADDR/align")
ALPHA_REPEAT=$(curl -sf -X POST -H 'Content-Type: application/json' \
  -H 'X-API-Key: alpha-key' -d "{\"pairs\":[$CFG_PAIR]}" "http://$ADDR/align")
first_aln=$(echo "$ALPHA_FIRST" | grep -o '"alignments":\[[^]]*\]')
repeat_aln=$(echo "$ALPHA_REPEAT" | grep -o '"alignments":\[[^]]*\]')
if [ -z "$first_aln" ] || [ "$first_aln" != "$repeat_aln" ]; then
  echo "serve-smoke: cached repeat differs from first response:" >&2
  echo "  first:  $first_aln" >&2
  echo "  repeat: $repeat_aln" >&2
  exit 1
fi
curl -sf -o /dev/null -X POST -H 'Content-Type: application/json' \
  -H 'Authorization: Bearer bravo-key' -d "$BODY" "http://$ADDR/align"

# An unknown key must be refused, never downgraded to anonymous.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
  -H 'X-API-Key: wrong-key' -d "$BODY" "http://$ADDR/align")
if [ "$code" != "401" ]; then
  echo "serve-smoke: unknown API key returned $code, want 401" >&2
  exit 1
fi

# Re-scrape: per-tenant attribution and cache hit counters moved.
curl -sf -o "$WORK/metrics.txt" "http://$ADDR/metrics"
prom_nonzero 'logan_tenant_pairs_total\{tenant="alpha"\}'
prom_nonzero 'logan_tenant_pairs_total\{tenant="bravo"\}'
prom_nonzero 'logan_tenant_pairs_total\{tenant="anonymous"\}'
prom_nonzero 'logan_tenant_cache_hits_total\{tenant="alpha"\}'
prom_nonzero 'logan_cache_hits_total'
prom_nonzero 'logan_cache_entries'

# An invalid scheme must be rejected with 400, not aligned. (Probed after
# the statz error check: the rejection itself counts as a served error.)
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
  -d '{"pairs":[],"scoring":{"mode":"bogus"}}' "http://$ADDR/align")
if [ "$code" != "400" ]; then
  echo "serve-smoke: invalid scheme returned $code, want 400" >&2
  exit 1
fi

# --- async /jobs overlap API -------------------------------------------
# Deterministic small data set shared by the offline and served runs.
"$BELLA" -preset tiny -seed 1 -dump-reads "$WORK/reads.fa" >/dev/null
"$BELLA" -fasta "$WORK/reads.fa" -cov 5 -errrate 0.15 -x 25 -minov 500 \
  -paf "$WORK/offline.paf" >/dev/null

JOB=$(curl -sf -X POST --data-binary "@$WORK/reads.fa" \
  "http://$ADDR/jobs?x=25&minOverlap=500&coverage=5&errorRate=0.15")
JOB_ID=$(echo "$JOB" | grep -o '"id":"[0-9a-f]*"' | cut -d'"' -f4)
if [ -z "$JOB_ID" ]; then
  echo "serve-smoke: POST /jobs returned no id: $JOB" >&2
  exit 1
fi

STATE=""
for _ in $(seq 1 600); do
  STATUS=$(curl -sf "http://$ADDR/jobs/$JOB_ID")
  STATE=$(echo "$STATUS" | grep -o '"state":"[a-z]*"' | cut -d'"' -f4)
  case "$STATE" in
    done) break ;;
    failed|canceled)
      echo "serve-smoke: job reached $STATE: $STATUS" >&2
      exit 1 ;;
  esac
  sleep 0.1
done
if [ "$STATE" != "done" ]; then
  echo "serve-smoke: job still '$STATE' after 60s" >&2
  exit 1
fi

curl -sf "http://$ADDR/jobs/$JOB_ID/paf" -o "$WORK/served.paf"
RECORDS=$(wc -l < "$WORK/served.paf")
if [ "$RECORDS" -lt 1 ]; then
  echo "serve-smoke: job PAF is empty" >&2
  exit 1
fi
if ! cmp -s "$WORK/offline.paf" "$WORK/served.paf"; then
  echo "serve-smoke: /jobs PAF differs from the offline cmd/bella run:" >&2
  diff "$WORK/offline.paf" "$WORK/served.paf" | head -5 >&2
  exit 1
fi

code=$(curl -s -o /dev/null -w '%{http_code}' -X DELETE "http://$ADDR/jobs/$JOB_ID")
if [ "$code" != "204" ]; then
  echo "serve-smoke: DELETE returned $code, want 204" >&2
  exit 1
fi
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/jobs/$JOB_ID")
if [ "$code" != "404" ]; then
  echo "serve-smoke: GET after DELETE returned $code, want 404" >&2
  exit 1
fi

# --- reference mapping: POST /map vs offline cmd/logan-map -------------
# Same simulated genome + reads for both paths: the served PAF must be
# byte-identical to the offline CLI (both are logan.Mapper.MapFasta).
"$BELLA" -preset tiny -seed 2 -dump-genome "$WORK/ref.fa" \
  -dump-reads "$WORK/mapreads.fa" >/dev/null

"$LOGAN_MAP" build-index -ref "$WORK/ref.fa" -o "$WORK/ref.lgi" 2>/dev/null
"$LOGAN_MAP" map -index "$WORK/ref.lgi" -x 100 "$WORK/mapreads.fa" \
  > "$WORK/offline-map.paf"

code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  --data-binary "@$WORK/ref.fa" "http://$ADDR/map/index")
if [ "$code" != "202" ]; then
  echo "serve-smoke: POST /map/index returned $code, want 202" >&2
  exit 1
fi
MSTATE=""
for _ in $(seq 1 300); do
  MSTATE=$(curl -sf "http://$ADDR/map/index" | grep -o '"state":"[a-z]*"' | cut -d'"' -f4)
  case "$MSTATE" in
    ready) break ;;
    failed)
      echo "serve-smoke: server index build failed: $(curl -sf "http://$ADDR/map/index")" >&2
      exit 1 ;;
  esac
  sleep 0.1
done
if [ "$MSTATE" != "ready" ]; then
  echo "serve-smoke: mapping index still '$MSTATE' after 30s" >&2
  exit 1
fi

curl -sf -X POST --data-binary "@$WORK/mapreads.fa" \
  "http://$ADDR/map?x=100" -o "$WORK/served-map.paf"
MAP_RECORDS=$(wc -l < "$WORK/served-map.paf")
if [ "$MAP_RECORDS" -lt 1 ]; then
  echo "serve-smoke: POST /map returned an empty PAF" >&2
  exit 1
fi
if ! cmp -s "$WORK/offline-map.paf" "$WORK/served-map.paf"; then
  echo "serve-smoke: /map PAF differs from the offline cmd/logan-map run:" >&2
  diff "$WORK/offline-map.paf" "$WORK/served-map.paf" | head -5 >&2
  exit 1
fi

# The mapping telemetry must have moved.
curl -sf -o "$WORK/metrics.txt" "http://$ADDR/metrics"
prom_nonzero 'logan_map_reads_total'
prom_nonzero 'logan_map_anchors_total'
prom_nonzero 'logan_map_chains_total'
# The occupancy gauge is a fraction in (0,1), so the integer-summing
# prom_nonzero helper would truncate it to zero; compare as a float.
occ=$(grep -E '^logan_map_index_occupancy ' "$WORK/metrics.txt" | awk '{print $2}')
if [ -z "$occ" ] || ! awk -v o="$occ" 'BEGIN { exit !(o > 0) }'; then
  echo "serve-smoke: logan_map_index_occupancy missing or zero (got '${occ:-}')" >&2
  exit 1
fi

# Graceful shutdown must drain cleanly.
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=""
echo "serve-smoke: OK (50/50 requests, $merged merged batches, $RECORDS job PAF records, $MAP_RECORDS map PAF records)"
