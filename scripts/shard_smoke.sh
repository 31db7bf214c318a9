#!/usr/bin/env bash
# Sharding smoke test: three durable backend shards, a router over a
# hierarchy-partitioned shard map, a mixed DDL/mutation/query workload
# through the router checked byte-identical against a single-node
# control server (a partially rejected INSERT included, so the undo on
# the shards that acked it is checked), kill -9 one shard (degraded
# reads: confined queries keep answering, fan-out queries fail
# loudly and leave the live shards writable), then offline placement verification of every shard with
# `hrdb fsck --against MAP` — including a seeded misplacement that F020
# must catch. Run from the repository
# root after `dune build`; CI runs it as the shard-smoke job.
set -euo pipefail

HRDB=${HRDB:-_build/default/bin/hrdb.exe}
SERVER=${SERVER:-_build/default/bin/hrdb_server.exe}
S0PORT=${S0PORT:-7471}
S1PORT=${S1PORT:-7472}
S2PORT=${S2PORT:-7473}
RPORT=${RPORT:-7474}
CPORT=${CPORT:-7475}

WORK=$(mktemp -d)
PIDS=()
cleanup() {
  for p in "${PIDS[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "shard_smoke: FAIL: $*" >&2; exit 1; }

on() { "$HRDB" exec -p "$1" --timeout 10 "$2"; }

metric() { # metric PORT NAME
  "$HRDB" exec -p "$1" --timeout 10 --stats | awk -v n="$2" '$1 == n { print $2 }'
}

wait_ready() { # wait_ready PORT LABEL
  for _ in $(seq 1 100); do
    if on "$1" "SHOW RELATIONS;" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  fail "$2 on port $1 never became ready"
}

echo "== start three durable shards"
"$SERVER" -p "$S0PORT" -d "$WORK/s0" & PIDS+=($!)
"$SERVER" -p "$S1PORT" -d "$WORK/s1" & PIDS+=($!)
S2PID_INDEX=${#PIDS[@]}
"$SERVER" -p "$S2PORT" -d "$WORK/s2" & PIDS+=($!)
wait_ready "$S0PORT" "shard 0"
wait_ready "$S1PORT" "shard 1"
wait_ready "$S2PORT" "shard 2"

echo "== write the shard map and start the router (port $RPORT)"
cat > "$WORK/shards.map" <<EOF
shard 0 127.0.0.1:$S0PORT $WORK/s0
shard 1 127.0.0.1:$S1PORT $WORK/s1
shard 2 127.0.0.1:$S2PORT $WORK/s2
subtree penguin 1
subtree sparrow 2
default 0
EOF
"$SERVER" -p "$RPORT" --router --shard-map "$WORK/shards.map" --shard-timeout 5 & PIDS+=($!)
wait_ready "$RPORT" router

echo "== single-node control server (port $CPORT)"
"$SERVER" -p "$CPORT" & PIDS+=($!)
wait_ready "$CPORT" control

echo "== mixed workload through the router, byte-identical to the control"
run_both() { # every statement must produce identical output on both
  local r c
  r=$(on "$RPORT" "$1" 2>&1) || true
  c=$(on "$CPORT" "$1" 2>&1) || true
  if [ "$r" != "$c" ]; then
    fail "divergent reply for [$1]:
router:  $r
control: $c"
  fi
}
run_both "CREATE DOMAIN animal; CREATE CLASS bird UNDER animal;
          CREATE CLASS penguin UNDER bird; CREATE CLASS sparrow UNDER bird;
          CREATE INSTANCE tweety OF penguin; CREATE INSTANCE opus OF penguin;
          CREATE INSTANCE jack OF sparrow; CREATE INSTANCE rex OF animal;
          CREATE RELATION flies (who: animal);"
run_both "INSERT INTO flies VALUES (+ ALL bird), (+ rex);"
run_both "INSERT INTO flies VALUES (- tweety);"
# a multi-shard INSERT that shard 2 rejects: the shards that acked it
# already held every row they got, so the undo must delete nothing
run_both "INSERT INTO flies VALUES (+ jack);"
run_both "INSERT INTO flies VALUES (- tweety), (+ ALL bird), (- jack);"
run_both "ASK flies (tweety);"
run_both "ASK flies (opus);"
run_both "SELECT * FROM flies;"
run_both "SELECT * FROM flies WHERE who = tweety;"
run_both "SELECT * FROM flies WHERE who = ALL bird;"
run_both "ASK flies (opus);"
run_both "ASK flies (tweety);"
run_both "EXPLAIN flies (jack);"
run_both "LET grounded = SELECT flies WHERE who = ALL penguin;"
run_both "SELECT * FROM grounded;"
run_both "CONSOLIDATE flies;"
run_both "SELECT * FROM flies;"
run_both "DELETE FROM flies VALUES (rex);"
run_both "SELECT * FROM nosuch;"
# scoped reads pull only the probed node's meeting set from its cover:
# a multi-parent instance, a class spanning both subtrees, an EXPLAIN
run_both "CREATE CLASS pet UNDER animal; CREATE INSTANCE polly OF penguin, pet;
          CREATE INSTANCE pip OF sparrow, pet;"
run_both "INSERT INTO flies VALUES (+ ALL pet), (- pip);"
run_both "ASK flies (polly);"
run_both "SELECT * FROM flies WHERE who = ALL pet;"
run_both "EXPLAIN flies (pip);"
run_both "SHOW RELATIONS;"

echo "== routing counters moved"
routed=$(metric "$RPORT" shard.mutations_routed)
pulls=$(metric "$RPORT" shard.pulls)
[ -n "$routed" ] && [ "$routed" -gt 0 ] || fail "shard.mutations_routed=$routed"
[ -n "$pulls" ] && [ "$pulls" -gt 0 ] || fail "shard.pulls=$pulls"

echo "== kill -9 shard 2 (sparrow subtree): degraded reads"
on "$RPORT" "INSERT INTO flies VALUES (+ opus);" >/dev/null
kill -9 "${PIDS[$S2PID_INDEX]}"
wait "${PIDS[$S2PID_INDEX]}" 2>/dev/null || true
out=$(on "$RPORT" "SELECT * FROM flies WHERE who = opus;") \
  || fail "query confined to live shards failed after shard death"
case "$out" in
  *opus*) ;;
  *) fail "degraded read lost the penguin subtree: $out" ;;
esac
if out=$(on "$RPORT" "SELECT * FROM flies WHERE who = jack;" 2>&1); then
  fail "fan-out query to the dead shard unexpectedly succeeded: $out"
fi
case "$out" in
  *unreachable*) ;;
  *) fail "expected an 'unreachable' error, got: $out" ;;
esac
# an all-shard read fails naming the dead shard, and must leave the live
# shards' connections in step: the next write to the penguin subtree
# commits
if out=$(on "$RPORT" "SELECT * FROM flies;" 2>&1); then
  fail "all-shard read with shard 2 dead unexpectedly succeeded: $out"
fi
case "$out" in
  *"shard 2 "*unreachable*) ;;
  *) fail "expected shard 2 named unreachable, got: $out" ;;
esac
on "$RPORT" "INSERT INTO flies VALUES (+ opus);" >/dev/null \
  || fail "write to the penguin subtree failed after a failed all-shard read"
on "$RPORT" "DELETE FROM flies VALUES (opus);" >/dev/null \
  || fail "write to a live subtree failed after shard death"

echo "== stop everything; offline placement verification of every shard"
for p in "${PIDS[@]}"; do kill -9 "$p" 2>/dev/null || true; wait "$p" 2>/dev/null || true; done
PIDS=()
for d in s0 s1 s2; do
  "$HRDB" fsck "$WORK/$d" >/dev/null || fail "fsck $d (exit $?)"
done
"$HRDB" fsck --against "$WORK/shards.map" "$WORK/s0" \
  || fail "fsck --against shard map on the healthy deployment (exit $?)"

echo "== seed a misplaced tuple on shard 1; fsck must catch it (F020)"
"$SERVER" -p "$S1PORT" -d "$WORK/s1" & PIDS+=($!)
wait_ready "$S1PORT" "shard 1 (restarted)"
on "$S1PORT" "INSERT INTO flies VALUES (+ jack);" >/dev/null
kill -9 "${PIDS[0]}"; wait "${PIDS[0]}" 2>/dev/null || true
PIDS=()
if out=$("$HRDB" fsck --against "$WORK/shards.map" "$WORK/s0" 2>&1); then
  fail "fsck missed the seeded misplacement: $out"
fi
case "$out" in
  *F020*) ;;
  *) fail "expected an F020 finding, got: $out" ;;
esac

echo "shard_smoke: OK (mutations_routed=$routed pulls=$pulls)"
