#!/usr/bin/env sh
# Serve smoke test: boot the daemon, drive /v1/run three times with the
# same body, and assert via /v1/stats that the second request is a
# cache hit and the third is answered from the reply the second
# recorded — and that its id replays exactly the bytes curl received.
# A second round boots with -max-concurrency 1 -queue-wait -1 and
# asserts the admission gate sheds a concurrent run with 429 +
# Retry-After instead of queueing it. A third round boots with
# -tenants: a missing file must stop the daemon before it listens, and
# with a one-tenant file a keyless /v1/run is refused with 401 while
# the keyed one runs. CI runs this on every push; it is also runnable
# locally:
#
#   sh scripts/serve_smoke.sh
#
# Requires: go, curl. No jq dependency — assertions are grep-based.
set -eu

ADDR="127.0.0.1:18080"
LOG="$(mktemp)"
BODY="$(mktemp)"
PROG="$(mktemp)"
SLOW="$(mktemp)"
SHEDBODY="$(mktemp)"
HDRS="$(mktemp)"
THIRD="$(mktemp)"
TENANTS="$(mktemp)"

cleanup() {
    [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -f "$LOG" "$BODY" "$PROG" "$SLOW" "$SLOW.2" "$SHEDBODY" \
        "$SHEDBODY.c1" "$SHEDBODY.c2" "$HDRS" "$HDRS.1" "$HDRS.2" \
        "$THIRD" "$THIRD.replay" "$TENANTS"
}
trap cleanup EXIT INT TERM

# wait_up polls /v1/stats until the daemon answers.
wait_up() {
    i=0
    until curl -fsS "http://$ADDR/v1/stats" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "FAIL: daemon never came up; log:" >&2
            cat "$LOG" >&2
            exit 1
        fi
        sleep 0.1
    done
}

# json_body wraps a DSL file into {"program": "..."} without jq.
json_body() {
    printf '{"program": "'
    sed -e 's/\\/\\\\/g' -e 's/"/\\"/g' "$1" | awk '{printf "%s\\n", $0}'
    printf '"}'
}

echo "==> building sysdl"
go build -o /tmp/sysdl-smoke ./cmd/sysdl

echo "==> starting sysdl serve on $ADDR"
/tmp/sysdl-smoke serve -addr "$ADDR" >"$LOG" 2>&1 &
SERVE_PID=$!

wait_up

json_body examples/dsl/fig7.sys >"$BODY"

echo "==> first /v1/run (expect cached:false, outcome completed)"
FIRST="$(curl -fsS -X POST --data-binary @"$BODY" "http://$ADDR/v1/run")"
echo "$FIRST"
echo "$FIRST" | grep -q '"cached":false' || { echo "FAIL: first request claims a cache hit" >&2; exit 1; }
echo "$FIRST" | grep -q '"outcome":"completed"' || { echo "FAIL: first run did not complete" >&2; exit 1; }

echo "==> second identical /v1/run (expect cached:true)"
SECOND="$(curl -fsS -X POST --data-binary @"$BODY" "http://$ADDR/v1/run")"
echo "$SECOND"
echo "$SECOND" | grep -q '"cached":true' || { echo "FAIL: second identical request was not a cache hit" >&2; exit 1; }

echo "==> /v1/stats (expect cacheHits:1, cacheMisses:1, replyHits:0)"
STATS="$(curl -fsS "http://$ADDR/v1/stats")"
echo "$STATS"
echo "$STATS" | grep -q '"cacheHits":1,' || { echo "FAIL: stats do not show exactly one hit" >&2; exit 1; }
echo "$STATS" | grep -q '"cacheMisses":1,' || { echo "FAIL: stats do not show exactly one miss" >&2; exit 1; }
echo "$STATS" | grep -q '"replyHits":0,' || { echo "FAIL: a reply hit before any reply was recorded" >&2; exit 1; }

echo "==> third identical /v1/run (expect cached:true, served from the recorded reply)"
curl -fsS -o "$THIRD" -X POST --data-binary @"$BODY" "http://$ADDR/v1/run"
cat "$THIRD"
grep -q '"cached":true' "$THIRD" || { echo "FAIL: third identical request does not say cached" >&2; exit 1; }
STATS="$(curl -fsS "http://$ADDR/v1/stats")"
echo "$STATS"
echo "$STATS" | grep -q '"replyHits":1,' || { echo "FAIL: third identical request was not a reply hit" >&2; exit 1; }
echo "$STATS" | grep -q '"cacheHits":2,' || { echo "FAIL: a reply hit must also count as a cache hit" >&2; exit 1; }
echo "$STATS" | grep -q '"cacheMisses":1,' || { echo "FAIL: a repeat recompiled" >&2; exit 1; }
ID3="$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$THIRD")"
curl -fsS -o "$THIRD.replay" "http://$ADDR/v1/results/$ID3"
cmp "$THIRD" "$THIRD.replay" || { echo "FAIL: GET /v1/results/$ID3 is not the reply curl received" >&2; exit 1; }

echo "==> result retention"
ID="$(echo "$FIRST" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
curl -fsS "http://$ADDR/v1/results/$ID" | grep -q '"outcome":"completed"' \
    || { echo "FAIL: GET /v1/results/$ID did not replay the run" >&2; exit 1; }

echo "==> graceful shutdown"
kill -INT "$SERVE_PID"
wait "$SERVE_PID" || { echo "FAIL: daemon exited non-zero on SIGINT" >&2; exit 1; }
SERVE_PID=""
grep -q "shut down" "$LOG" || { echo "FAIL: no shutdown line in log" >&2; exit 1; }

echo "==> admission round: -max-concurrency 1 -queue-wait -1"
# A long two-cell relay (~1s of simulation) so one run reliably holds
# the single slot while a second one arrives.
awk 'BEGIN {
    n = 600000
    printf "topology linear 2\ncell C1\ncell C2\nmessage A C1 C2 %d\n", n
    printf "code C1:"; for (i = 0; i < n; i++) printf " W(A)"; printf "\n"
    printf "code C2:"; for (i = 0; i < n; i++) printf " R(A)"; printf "\n"
}' >"$PROG"
json_body "$PROG" >"$BODY"

/tmp/sysdl-smoke serve -addr "$ADDR" -max-concurrency 1 -queue-wait -1 >"$LOG" 2>&1 &
SERVE_PID=$!
wait_up

# Fire two identical runs back-to-back. Both join the same in-flight
# compile (singleflight), unblock together, and race for the single
# run slot: exactly one must win it and complete, the other must be
# shed with 429 + Retry-After (which one wins is scheduling). Neither
# curl uses -f: one of the two answers is *supposed* to be a 429.
curl -s -o "$SLOW" -D "$HDRS.1" -w '%{http_code}' \
    -X POST --data-binary @"$BODY" "http://$ADDR/v1/run" >"$SHEDBODY.c1" &
PID1=$!
curl -s -o "$SLOW.2" -D "$HDRS.2" -w '%{http_code}' \
    -X POST --data-binary @"$BODY" "http://$ADDR/v1/run" >"$SHEDBODY.c2" &
PID2=$!
wait "$PID1" "$PID2" || true
CODE1="$(cat "$SHEDBODY.c1")"
CODE2="$(cat "$SHEDBODY.c2")"
rm -f "$SHEDBODY.c1" "$SHEDBODY.c2"
echo "   concurrent runs answered $CODE1 and $CODE2"
case "$CODE1$CODE2" in
200429) WIN="$SLOW" SHED="$SLOW.2" SHEDHDRS="$HDRS.2" ;;
429200) WIN="$SLOW.2" SHED="$SLOW" SHEDHDRS="$HDRS.1" ;;
*) echo "FAIL: expected exactly one 200 and one 429, got $CODE1/$CODE2" >&2
   cat "$SLOW" "$SLOW.2" >&2; exit 1 ;;
esac
grep -qi '^retry-after:' "$SHEDHDRS" || { echo "FAIL: 429 carried no Retry-After header" >&2; cat "$SHEDHDRS" >&2; exit 1; }
grep -q 'saturated' "$SHED" || { echo "FAIL: shed body does not name saturation" >&2; cat "$SHED" >&2; exit 1; }
grep -q '"outcome":"completed"' "$WIN" || { echo "FAIL: admitted run did not complete" >&2; cat "$WIN" >&2; exit 1; }
rm -f "$SLOW.2" "$HDRS.1" "$HDRS.2"

echo "==> stats count the shed"
STATS="$(curl -fsS "http://$ADDR/v1/stats")"
echo "$STATS"
echo "$STATS" | grep -q '"shedRequests":[1-9]' || { echo "FAIL: stats do not count the shed request" >&2; exit 1; }
echo "$STATS" | grep -q '"queueWait":0' || { echo "FAIL: -queue-wait -1 should report queueWait 0" >&2; exit 1; }

echo "==> admission round shutdown"
kill -INT "$SERVE_PID"
wait "$SERVE_PID" || { echo "FAIL: daemon exited non-zero on SIGINT" >&2; exit 1; }
SERVE_PID=""

echo "==> tenants round: a missing -tenants file stops serve before it listens"
/tmp/sysdl-smoke serve -addr "$ADDR" -tenants "$TENANTS.missing" >"$LOG" 2>&1 &
SERVE_PID=$!
i=0
while kill -0 "$SERVE_PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "FAIL: serve with a missing tenants file kept running" >&2
        exit 1
    fi
    sleep 0.1
done
if wait "$SERVE_PID"; then
    echo "FAIL: serve with a missing tenants file exited 0" >&2
    exit 1
fi
SERVE_PID=""
cat "$LOG"
if grep -q "listening" "$LOG"; then
    echo "FAIL: serve listened before refusing the tenants file" >&2
    exit 1
fi
grep -q "$TENANTS.missing" "$LOG" || { echo "FAIL: the error does not name the tenants file" >&2; exit 1; }

echo "==> tenants round: one tenant, keyless /v1/run is 401, keyed is 200"
printf '{"tenants": {"smoke-key": {"name": "smoke"}}}\n' >"$TENANTS"
/tmp/sysdl-smoke serve -addr "$ADDR" -tenants "$TENANTS" >"$LOG" 2>&1 &
SERVE_PID=$!
wait_up
json_body examples/dsl/fig7.sys >"$BODY"
CODE="$(curl -s -o "$THIRD" -w '%{http_code}' -X POST --data-binary @"$BODY" "http://$ADDR/v1/run")"
[ "$CODE" = 401 ] || { echo "FAIL: keyless /v1/run answered $CODE, want 401" >&2; cat "$THIRD" >&2; exit 1; }
CODE="$(curl -s -o "$THIRD" -w '%{http_code}' -H 'X-API-Key: smoke-key' \
    -X POST --data-binary @"$BODY" "http://$ADDR/v1/run")"
[ "$CODE" = 200 ] || { echo "FAIL: keyed /v1/run answered $CODE, want 200" >&2; cat "$THIRD" >&2; exit 1; }
grep -q '"outcome":"completed"' "$THIRD" || { echo "FAIL: keyed run did not complete" >&2; cat "$THIRD" >&2; exit 1; }

echo "==> tenants round shutdown"
kill -INT "$SERVE_PID"
wait "$SERVE_PID" || { echo "FAIL: daemon exited non-zero on SIGINT" >&2; exit 1; }
SERVE_PID=""

echo "PASS: serve smoke"
