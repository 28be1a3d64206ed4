#!/usr/bin/env bash
# Daemon smoke test: build bsmpd, start it, and check the serving
# contract end to end —
#   - a valid query answers 200 with a simulation result;
#   - the identical repeat is served from the result cache (response
#     carries "cached":true and /metrics shows the hit counter);
#   - an invalid tuple answers a structured 400 naming the offending
#     field, and the daemon stays healthy;
#   - a request that outlives its deadline answers 504 AND its worker
#     stops: its run record lands cancelled (runs_cancelled increments)
#     and the inflight_runs gauge, which counts running records, returns
#     to zero (checked on a second daemon with a tiny -timeout);
#   - a /v1/sweep grid streams one NDJSON row per point plus a done
#     summary, the identical repeat is all cache hits, and a malformed
#     grid answers a structured 400;
#   - a multi-faulty run echoes the fault density with a fault report,
#     keys its own cache entry, and rejects densities outside [0, 1);
#   - every run carries a run_id joining it to the /v1/runs registry, the
#     cached repeat keeps the ORIGINAL run's id, the full record lands
#     terminal with per-phase durations, and a slow run's SSE stream
#     delivers a join snapshot, live progress events, and the terminal
#     done event (watched from the side, without disturbing the run);
#   - SIGTERM drains and exits cleanly.
# Run from the repository root: scripts/smoke.sh [port]
set -euo pipefail

PORT="${1:-18080}"
BASE="http://127.0.0.1:$PORT"
BIN="$(mktemp -d)/bsmpd"

fail() { echo "smoke: FAIL: $*" >&2; exit 1; }

go build -o "$BIN" ./cmd/bsmpd
"$BIN" -addr "127.0.0.1:$PORT" &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT

for _ in $(seq 1 100); do
  curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -fsS "$BASE/healthz" | grep -q '"status":"ok"' || fail "daemon never became healthy"

VALID='{"scheme": "multi", "d": 1, "n": 256, "p": 8, "m": 16, "steps": 64}'
R1=$(curl -fsS -X POST --data "$VALID" "$BASE/v1/run") || fail "valid run request errored"
echo "$R1" | grep -q '"cached":false' || fail "first run unexpectedly cached: $R1"
echo "$R1" | grep -q '"time":' || fail "run response missing time: $R1"

R2=$(curl -fsS -X POST --data "$VALID" "$BASE/v1/run") || fail "repeated run request errored"
echo "$R2" | grep -q '"cached":true' || fail "identical repeat not served from cache: $R2"

METRICS=$(curl -fsS "$BASE/metrics")
echo "$METRICS" | grep -q '"cache_hits":1[,}]' || fail "/metrics cache_hits != 1: $METRICS"

# Prometheus endpoint: every non-comment line must be `name{labels} value`
# (promtool-free regex check), and the run above must have landed in its
# scheme's latency histogram.
PROM=$(curl -fsS "$BASE/metrics.prom")
BADPROM=$(echo "$PROM" | grep -vE '^#' | grep -vE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.eE+-]+|\+Inf|NaN)$' || true)
[ -z "$BADPROM" ] || fail "malformed /metrics.prom line(s): $BADPROM"
echo "$PROM" | grep -q '^bsmpd_run_latency_seconds_bucket{scheme="multi",le="+Inf"} ' || fail "latency histogram missing +Inf bucket"
echo "$PROM" | grep -qE '^bsmpd_run_latency_seconds_count\{scheme="multi"\} [1-9]' || fail "latency histogram empty after a run"
echo "$PROM" | grep -q '^# TYPE bsmpd_queue_wait_seconds histogram' || fail "queue-wait histogram missing"

# Θ-model round trip: the multi-theta scheme accepts the theta config
# field, echoes it, runs slower than its Θ = 1 default (same tuple,
# distinct cache entries), and a sub-1 ratio answers a structured 400.
THETA1='{"scheme": "multi-theta", "d": 1, "n": 256, "p": 8, "m": 16, "steps": 64}'
THETA3='{"scheme": "multi-theta", "d": 1, "n": 256, "p": 8, "m": 16, "steps": 64, "config": {"theta": 3, "theta_seed": 7}}'
T1=$(curl -fsS -X POST --data "$THETA1" "$BASE/v1/run") || fail "multi-theta default run errored"
echo "$T1" | grep -q '"cached":false' || fail "multi-theta default unexpectedly cached: $T1"
T3=$(curl -fsS -X POST --data "$THETA3" "$BASE/v1/run") || fail "multi-theta theta=3 run errored"
echo "$T3" | grep -q '"theta":3' || fail "theta not echoed: $T3"
echo "$T3" | grep -q '"cached":false' || fail "theta=3 aliased the default run's cache entry: $T3"
TBAD="$(mktemp)"
TSTATUS=$(curl -s -o "$TBAD" -w '%{http_code}' -X POST --data '{"scheme": "multi-theta", "d": 1, "n": 256, "p": 8, "m": 16, "steps": 64, "config": {"theta": 0.5}}' "$BASE/v1/run")
[ "$TSTATUS" = 400 ] || fail "theta=0.5 got status $TSTATUS, want 400: $(cat "$TBAD")"
grep -q '"field":"theta"' "$TBAD" || fail "400 body does not name field theta: $(cat "$TBAD")"
# (capture before grep -q: under pipefail, grep -q's early exit would
# SIGPIPE curl and fail the pipeline spuriously)
PROM=$(curl -fsS "$BASE/metrics.prom")
echo "$PROM" | grep -q '^bsmpd_run_latency_seconds_bucket{scheme="multi-theta",le="+Inf"} ' || fail "theta latency histogram missing"

# Fault-regime round trip: the multi-faulty scheme accepts the faults
# config field, echoes it together with a fault report, keys a distinct
# cache entry from the fault-free run on the same tuple, and an
# out-of-range density answers a structured 400.
FAULT0='{"scheme": "multi-faulty", "d": 1, "n": 256, "p": 8, "m": 16, "steps": 64}'
FAULT1='{"scheme": "multi-faulty", "d": 1, "n": 256, "p": 8, "m": 16, "steps": 64, "config": {"faults": 0.25, "fault_seed": 3}}'
F0=$(curl -fsS -X POST --data "$FAULT0" "$BASE/v1/run") || fail "multi-faulty zero-fault run errored"
echo "$F0" | grep -q '"cached":false' || fail "multi-faulty zero-fault unexpectedly cached: $F0"
F1=$(curl -fsS -X POST --data "$FAULT1" "$BASE/v1/run") || fail "multi-faulty faults=0.25 run errored"
echo "$F1" | grep -q '"faults":0.25' || fail "fault density not echoed: $F1"
echo "$F1" | grep -q '"fault_report":' || fail "fault report missing: $F1"
echo "$F1" | grep -q '"cached":false' || fail "faults=0.25 aliased the zero-fault cache entry: $F1"
FBAD="$(mktemp)"
FSTATUS=$(curl -s -o "$FBAD" -w '%{http_code}' -X POST --data '{"scheme": "multi-faulty", "d": 1, "n": 256, "p": 8, "m": 16, "steps": 64, "config": {"faults": 1.5}}' "$BASE/v1/run")
[ "$FSTATUS" = 400 ] || fail "faults=1.5 got status $FSTATUS, want 400: $(cat "$FBAD")"
grep -q '"field":"faults"' "$FBAD" || fail "400 body does not name field faults: $(cat "$FBAD")"

# Traced run: ?trace=1 returns the span timeline inline and bypasses the
# cache; tracecheck verifies children vtimes telescope to their parents
# and a schedule span matches time + prep_time.
TRACED=$(curl -fsS -X POST --data "$VALID" "$BASE/v1/run?trace=1") || fail "traced run request errored"
echo "$TRACED" | grep -q '"cached":false' || fail "traced run served from cache: $TRACED"
echo "$TRACED" | grep -q '"trace":' || fail "traced response carries no timeline"
echo "$TRACED" | go run ./scripts/tracecheck || fail "trace timeline inconsistent"

# Run registry round trip: the first run's run_id resolves to a full
# terminal record with per-phase wall durations, the cached repeat kept
# the ORIGINAL execution's id, and the registry surfaces on both metric
# endpoints.
RID=$(echo "$R1" | sed -En 's/.*"run_id":"([^"]+)".*/\1/p')
[ -n "$RID" ] || fail "run response carries no run_id: $R1"
RID2=$(echo "$R2" | sed -En 's/.*"run_id":"([^"]+)".*/\1/p')
[ "$RID2" = "$RID" ] || fail "cached repeat run_id $RID2 != original $RID"
REC=$(curl -fsS "$BASE/v1/runs/$RID") || fail "run record fetch errored"
echo "$REC" | grep -q '"state":"done"' || fail "record not terminal done: $REC"
echo "$REC" | grep -q '"phase_times":' || fail "record missing phase durations: $REC"
echo "$REC" | grep -q '"cache_hits":1' || fail "cached repeat not credited to the record: $REC"
DONELIST=$(curl -fsS "$BASE/v1/runs?state=done")
echo "$DONELIST" | grep -q "\"$RID\"" || fail "done listing missing $RID"
PROMR=$(curl -fsS "$BASE/metrics.prom")
echo "$PROMR" | grep -q '^bsmpd_runs_total{source="run",scheme="multi",state="done"} [1-9]' || fail "registry run counter missing"
echo "$PROMR" | grep -q '^bsmpd_run_phase_seconds_bucket{phase=' || fail "per-phase histogram missing"
echo "$PROMR" | grep -q '^bsmpd_run_latency_seconds_quantile{scheme="multi",q="0.99"} ' || fail "latency quantile gauges missing"

# SSE round trip: watch a slow run from the side. The stream must open
# with a join snapshot, deliver at least one progress event while the
# simulation advances, and close with the terminal done event; the
# watched run itself must complete normally (the watcher is an observer,
# never an owner).
SLOW='{"scheme": "blocked", "d": 2, "n": 4096, "p": 1, "m": 4, "steps": 128}'
SLOWOUT="$(mktemp)"
curl -fsS -X POST --data "$SLOW" "$BASE/v1/run" > "$SLOWOUT" &
SLOWPID=$!
SSEID=""
for _ in $(seq 1 100); do
  SSEID=$(curl -fsS "$BASE/v1/runs?state=running&source=run" | sed -En 's/.*"id":"([^"]+)".*/\1/p')
  [ -n "$SSEID" ] && break
  sleep 0.05
done
[ -n "$SSEID" ] || fail "slow run never appeared in /v1/runs?state=running"
SSE="$(mktemp)"
curl -fsS -N --max-time 60 "$BASE/v1/runs/$SSEID/events?poll_ms=50" > "$SSE" || fail "SSE stream errored"
grep -q '^event: snapshot' "$SSE" || fail "SSE stream missing join snapshot: $(cat "$SSE")"
grep -q '^event: progress' "$SSE" || fail "SSE stream delivered no progress event: $(cat "$SSE")"
grep -q '^event: done' "$SSE" || fail "SSE stream missing terminal done event: $(tail -5 "$SSE")"
wait "$SLOWPID" || fail "watched run errored"
grep -q '"time":' "$SLOWOUT" || fail "watched run returned no result: $(cat "$SLOWOUT")"

# bsmptop single-frame render against the live daemon.
TOPFRAME=$(go run ./cmd/bsmptop -addr "$BASE" -once) || fail "bsmptop -once exited non-zero"
echo "$TOPFRAME" | grep -q 'bsmptop — ' || fail "bsmptop -once rendered no dashboard header: $TOPFRAME"

# Request IDs are stamped on every response.
curl -fsSI "$BASE/healthz" | grep -qi '^x-request-id:' || fail "missing X-Request-Id header"

INVALID='{"scheme": "naive", "d": 2, "n": 10, "p": 1, "m": 4, "steps": 4}'
ERRBODY="$(mktemp)"
STATUS=$(curl -s -o "$ERRBODY" -w '%{http_code}' -X POST --data "$INVALID" "$BASE/v1/run")
[ "$STATUS" = 400 ] || fail "invalid tuple got status $STATUS, want 400"
grep -q '"kind":"param"' "$ERRBODY" || fail "400 body not a structured param error: $(cat "$ERRBODY")"
grep -q '"field":"n"' "$ERRBODY" || fail "400 body does not name field n: $(cat "$ERRBODY")"

curl -fsS "$BASE/v1/bounds?d=1&n=4096&p=16&m=4" | grep -q '"slowdown"' || fail "bounds endpoint broken"
curl -fsS "$BASE/healthz" >/dev/null || fail "daemon unhealthy after invalid request"

# Sweep round trip: an 8-point grid (p range x m list) streams 8 result
# rows plus a terminal done summary; the identical repeat is served
# entirely from the result cache; a grid with a non-dividing p answers a
# structured 400 naming the offending point.
SWEEP='{"schemes": ["multi"], "d": 1, "n": [256], "p": {"from": 2, "to": 16, "mul": 2}, "m": [4, 16], "steps": 32}'
S1="$(mktemp)"
curl -fsS -N -X POST --data "$SWEEP" "$BASE/v1/sweep" > "$S1" || fail "sweep request errored"
ROWS=$(grep -c '"result"' "$S1" || true)
[ "$ROWS" = 8 ] || fail "sweep streamed $ROWS result rows, want 8: $(cat "$S1")"
grep -q '"done":true' "$S1" || fail "sweep missing done summary: $(cat "$S1")"
grep -q '"errors":0' "$S1" || fail "sweep reported errors: $(cat "$S1")"
# Outputs do not depend on p: the rows of each m carry one
# outputs_digest, and a fresh (traced, so uncached) /v1/run of one of
# those points reproduces it.
DIGESTS=$(sed -En 's/.*"m":([0-9]+),.*"outputs_digest":"([0-9a-f]{16})".*/\1 \2/p' "$S1" | sort -u)
[ "$(echo "$DIGESTS" | wc -l)" = 2 ] || fail "sweep rows do not carry one outputs_digest per m: $DIGESTS"
[ "$(echo "$DIGESTS" | cut -d' ' -f1 | sort -u | tr '\n' ' ')" = "16 4 " ] || fail "outputs_digest per m malformed: $DIGESTS"
D4=$(echo "$DIGESTS" | sed -En 's/^4 //p')
RD=$(curl -fsS -X POST --data '{"scheme": "multi", "d": 1, "n": 256, "p": 4, "m": 4, "steps": 32}' "$BASE/v1/run?trace=1") || fail "digest reference run errored"
echo "$RD" | grep -q "\"outputs_digest\":\"$D4\"" || fail "/v1/run outputs_digest differs from the sweep's m=4 rows ($D4): $RD"
S2="$(mktemp)"
curl -fsS -N -X POST --data "$SWEEP" "$BASE/v1/sweep" > "$S2" || fail "repeat sweep errored"
HITS=$(grep -c '"cached":true' "$S2" || true)
[ "$HITS" = 8 ] || fail "repeat sweep had $HITS cache hits, want 8: $(cat "$S2")"
SBAD="$(mktemp)"
SSTATUS=$(curl -s -o "$SBAD" -w '%{http_code}' -X POST --data '{"schemes": ["multi"], "d": 1, "n": [256], "p": [7], "m": [4], "steps": 32}' "$BASE/v1/sweep")
[ "$SSTATUS" = 400 ] || fail "malformed grid got status $SSTATUS, want 400: $(cat "$SBAD")"
grep -q '"kind":"param"' "$SBAD" || fail "sweep 400 not a structured param error: $(cat "$SBAD")"
grep -q 'grid point' "$SBAD" || fail "sweep 400 does not name the offending grid point: $(cat "$SBAD")"
MSWEEP=$(curl -fsS "$BASE/metrics")
echo "$MSWEEP" | grep -q '"sweep_rows":16[,}]' || fail "sweep_rows counter wrong after two sweeps"
PROMSW=$(curl -fsS "$BASE/metrics.prom")
echo "$PROMSW" | grep -q '^bsmpd_sweep_row_latency_seconds_bucket{le="+Inf"} ' || fail "sweep row latency histogram missing"

# Deadline cancellation: a second daemon with a tiny request budget. The
# expired request must answer 504 AND actually stop its worker — its run
# record lands cancelled and the in-flight gauge drops back to zero,
# instead of the simulation burning CPU to completion. The worker
# finishes the record itself, so both readings change only once the
# worker has stopped.
PORT2=$((PORT + 1))
BASE2="http://127.0.0.1:$PORT2"
"$BIN" -addr "127.0.0.1:$PORT2" -timeout 150ms &
PID2=$!
trap 'kill "$PID" "$PID2" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  curl -fsS "$BASE2/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
HEAVY='{"scheme": "blocked", "d": 2, "n": 4096, "p": 1, "m": 4, "steps": 128}'
DBODY="$(mktemp)"
DSTATUS=$(curl -s -o "$DBODY" -w '%{http_code}' -X POST --data "$HEAVY" "$BASE2/v1/run")
[ "$DSTATUS" = 504 ] || fail "deadline-expired run got status $DSTATUS, want 504: $(cat "$DBODY")"
grep -q '"kind":"deadline"' "$DBODY" || fail "504 body not a deadline error: $(cat "$DBODY")"
CANCELLED=""
M2=""
for _ in $(seq 1 50); do
  M2=$(curl -fsS "$BASE2/metrics")
  if echo "$M2" | grep -q '"runs_cancelled":[1-9]' && echo "$M2" | grep -q '"inflight_runs":0[,}]'; then
    CANCELLED=yes
    break
  fi
  sleep 0.1
done
[ -n "$CANCELLED" ] || fail "cancelled run not reflected in metrics: $M2"
kill -TERM "$PID2"
wait "$PID2" || fail "deadline daemon exited non-zero after SIGTERM"

kill -TERM "$PID"
wait "$PID" || fail "daemon exited non-zero after SIGTERM"
trap - EXIT
echo "smoke: OK"
