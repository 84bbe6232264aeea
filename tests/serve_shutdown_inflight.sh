#!/bin/sh
# Shuts licm_serve down over the wire while queries are still running
# and waiting in the admission queue; the server must exit 0. On
# shutdown the service fails its queued requests and finishes the
# running ones, and those completions call into the request coalescer
# and the front end, so both must outlive the service's workers.
#
#   serve_shutdown_inflight.sh LICM_SERVE LICM_CLIENT [licm_serve args...]
#
# Exits 77 (skipped) when the server cannot bind a loopback socket.
set -u
serve=$1
client=$2
shift 2

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

"$serve" --port 0 --instance a=kanon:4 --workers 2 "$@" \
  > "$dir/serve.log" 2> "$dir/serve.err" &
pid=$!
for _ in $(seq 300); do
  grep -q '^LISTENING' "$dir/serve.log" && break
  kill -0 "$pid" 2> /dev/null || break
  sleep 0.1
done
port=$(awk '/^LISTENING/{print $2}' "$dir/serve.log")
if [ -z "$port" ]; then
  cat "$dir/serve.err"
  kill "$pid" 2> /dev/null
  wait "$pid"
  grep -q 'listen failed' "$dir/serve.err" && exit 77
  exit 1
fi

# Four connections with two ~1 s Query 3 solves each: with 2 workers
# some run and some queue, and the shutdown lands in the middle. Each
# connection sends its own sampling seed, which keys the coalescer but
# not the exact answer, so the coalescer has four solves in flight too.
clients=""
for seed in 1 2 3 4; do
  q='{"op":"query","instance":"a","qnum":3,"seed":'$seed'}'
  "$client" --port "$port" --raw "$q" --raw "$q" > /dev/null 2>&1 &
  clients="$clients $!"
done
sleep 0.5
"$client" --port "$port" --raw '{"op":"shutdown","id":0}'

wait "$pid"
rc=$?
# The clients lose their connections at shutdown; their exit codes are
# not what is tested.
for c in $clients; do wait "$c"; done
echo "licm_serve exited $rc"
[ "$rc" -eq 0 ]
