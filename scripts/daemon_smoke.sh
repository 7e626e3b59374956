#!/usr/bin/env bash
# End-to-end smoke of the parcoachd daemon: build it under the race
# detector, boot it, and drive the whole validation loop over HTTP —
# cold compile → content-addressed cache hit (byte-identical
# diagnostics) → streamed DFS exploration of a planted schedule-only
# deadlock → replay of the reported failing schedule, both through the
# daemon's /run and through hybridrun -replay → a mismatched trace that
# both report as diverged → an oversized request refused without taking
# the daemon down → warm sessions capped per artifact → schedule-less
# runs answering byte-identically → nested
# regions past the live-thread limit failing as a runtime error → a
# budget-truncated DFS answering the same report at 1 and 4 workers.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
daemon_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -race -o "$workdir/parcoachd" ./cmd/parcoachd
go build -o "$workdir/hybridrun" ./cmd/hybridrun

addr=127.0.0.1:7490
"$workdir/parcoachd" -addr "$addr" &
daemon_pid=$!

for i in $(seq 1 50); do
  if curl -sf "http://$addr/healthz" >/dev/null 2>&1; then break; fi
  if [ "$i" -eq 50 ]; then echo "FAIL: daemon never became healthy"; exit 1; fi
  sleep 0.2
done
echo "daemon healthy on $addr"

# The property-suite racer: statically quiet, deadlocks only under a
# particular single-election schedule — exactly what /explore must find.
cat > "$workdir/racer.mh" <<'EOF'
func main() {
	MPI_Init()
	var winner = 0
	parallel num_threads(2) {
		single nowait { winner = tid() }
	}
	if winner == 0 {
		MPI_Barrier()
	}
	MPI_Finalize()
}
EOF
jq -Rs '{name: "racer.mh", source: .}' "$workdir/racer.mh" > "$workdir/compile.json"

# 1. Cold compile: a miss.
miss=$(curl -sf -d @"$workdir/compile.json" "http://$addr/compile")
[ "$(jq -r .cached <<<"$miss")" = "false" ] || { echo "FAIL: first compile claims cached"; exit 1; }
key=$(jq -r .key <<<"$miss")
echo "compiled cold: $key"

# 2. Same source again: a hit, diagnostics byte-identical.
hit=$(curl -sf -d @"$workdir/compile.json" "http://$addr/compile")
[ "$(jq -r .cached <<<"$hit")" = "true" ] || { echo "FAIL: second compile missed the cache"; exit 1; }
[ "$(jq -c .diagnostics <<<"$miss")" = "$(jq -c .diagnostics <<<"$hit")" ] \
  || { echo "FAIL: cached diagnostics differ"; exit 1; }
echo "cache hit with identical diagnostics"

# 3. Streamed DFS exploration must find the planted deadlock.
jq -n --arg key "$key" \
  '{key: $key, strategy: "dfs", schedules: 512, workers: 4, stream: true}' \
  > "$workdir/explore.json"
curl -sfN -d @"$workdir/explore.json" "http://$addr/explore" > "$workdir/stream.ndjson"
[ "$(head -n1 "$workdir/stream.ndjson" | jq -r .event)" = "start" ] \
  || { echo "FAIL: stream did not open with a start event"; exit 1; }
report=$(tail -n1 "$workdir/stream.ndjson")
[ "$(jq -r .event <<<"$report")" = "report" ] || { echo "FAIL: stream did not end with a report"; exit 1; }
outcome=$(jq -r .report.firstFailure.outcome <<<"$report")
token=$(jq -r .report.firstFailure.schedule <<<"$report")
[ "$outcome" = "deadlock" ] || { echo "FAIL: explored outcome $outcome, want deadlock"; exit 1; }
grep -q '"event":"failure"' "$workdir/stream.ndjson" || { echo "FAIL: no streamed failure event"; exit 1; }
echo "exploration streamed a deadlock, replay token: $token"

# 4. Replay the token through the daemon: must reproduce.
replay=$(jq -n --arg key "$key" --arg sched "$token" '{key: $key, schedule: $sched}' \
  | curl -sf -d @- "http://$addr/run")
[ "$(jq -r .outcome <<<"$replay")" = "deadlock" ] || { echo "FAIL: daemon replay did not reproduce"; exit 1; }
[ "$(jq -r .diverged <<<"$replay")" = "null" ] || { echo "FAIL: daemon replay diverged"; exit 1; }
echo "daemon replay reproduced the deadlock"

# 5. And through the CLI: hybridrun -replay exits 1 on the failing run.
set +e
"$workdir/hybridrun" -replay "$token" "$workdir/racer.mh" >/dev/null 2>"$workdir/replay.err"
rc=$?
set -e
[ "$rc" -eq 1 ] || { echo "FAIL: hybridrun -replay exited $rc, want 1"; cat "$workdir/replay.err"; exit 1; }
grep -q deadlock "$workdir/replay.err" || { echo "FAIL: hybridrun replay error is not a deadlock"; exit 1; }
echo "hybridrun -replay reproduced the deadlock"

# 5b. A mismatched trace (thread 9 never exists at the first branch
# point) reproduces nothing: /run answers diverged, hybridrun exits 2.
bad="trace:9.${token#trace:}"
diverged=$(jq -n --arg key "$key" --arg sched "$bad" '{key: $key, schedule: $sched}' \
  | curl -sf -d @- "http://$addr/run")
[ "$(jq -r .diverged <<<"$diverged")" = "true" ] || { echo "FAIL: mismatched replay not diverged: $diverged"; exit 1; }
set +e
"$workdir/hybridrun" -replay "$bad" "$workdir/racer.mh" >/dev/null 2>"$workdir/diverged.err"
rc=$?
set -e
[ "$rc" -eq 2 ] || { echo "FAIL: diverging hybridrun -replay exited $rc, want 2"; cat "$workdir/diverged.err"; exit 1; }
grep -q "replay diverged" "$workdir/diverged.err" || { echo "FAIL: hybridrun did not name the divergence"; exit 1; }
echo "mismatched trace reported as diverged by /run and hybridrun -replay"

# 6. Stats reflect the traffic.
stats=$(curl -sf "http://$addr/stats")
[ "$(jq -r .cache.hits <<<"$stats")" -ge 1 ] || { echo "FAIL: no cache hits counted"; exit 1; }
[ "$(jq -r .sessions.warm <<<"$stats")" -ge 1 ] || { echo "FAIL: no warm sessions"; exit 1; }
[ "$(jq -r .explore.schedules <<<"$stats")" -ge 1 ] || { echo "FAIL: no schedules counted"; exit 1; }

# 7. Robustness: a client that hangs up mid-run must show up in the
# robustness counters — the run aborted (canceledRuns), the request
# counted (canceledRequests) — and the daemon must stay healthy.
for counter in canceledRequests quarantinedPanics canceledRuns watchdogRuns; do
  [ "$(jq -r ".robust.$counter" <<<"$stats")" != "null" ] \
    || { echo "FAIL: /stats robust section lacks $counter"; exit 1; }
done
cat > "$workdir/spin.json" <<'EOF'
{"name":"spin.mh","schedule":"rr","maxSteps":2000000000,
 "source":"func main() {\n\tMPI_Init()\n\tvar i = 0\n\twhile i < 2000000000 {\n\t\ti = i + 1\n\t}\n\tMPI_Finalize()\n}"}
EOF
set +e
curl -s --max-time 2 -d @"$workdir/spin.json" "http://$addr/run" >/dev/null 2>&1
set -e
for i in $(seq 1 50); do
  robust=$(curl -sf "http://$addr/stats" | jq .robust)
  if [ "$(jq -r .canceledRequests <<<"$robust")" -ge 1 ] \
     && [ "$(jq -r .canceledRuns <<<"$robust")" -ge 1 ]; then break; fi
  if [ "$i" -eq 50 ]; then
    echo "FAIL: client disconnect never reached the robustness counters: $robust"; exit 1
  fi
  sleep 0.2
done
curl -sf "http://$addr/healthz" >/dev/null || { echo "FAIL: daemon unhealthy after disconnect"; exit 1; }
echo "client disconnect aborted the run and was counted"

# 8. An exploration budget too large to allocate is refused with a 400
# (it used to end the process out of memory), and the daemon lives on.
code=$(jq -n --arg key "$key" '{key: $key, schedules: 8000000000}' \
  | curl -s -o /dev/null -w '%{http_code}' -d @- "http://$addr/explore")
[ "$code" = "400" ] || { echo "FAIL: oversized exploration answered $code, want 400"; exit 1; }
curl -sf "http://$addr/healthz" >/dev/null || { echo "FAIL: daemon unhealthy after an oversized request"; exit 1; }
echo "oversized exploration refused, daemon healthy"

# 9. Warm sessions are capped per artifact: 32 runs of one fresh source,
# each with its own maxSteps, may add at most 16 sessions.
warm_before=$(curl -sf "http://$addr/stats" | jq -r .sessions.warm)
for i in $(seq 1 32); do
  jq -n --argjson steps $((100000 + i)) \
    '{name: "capped.mh", source: "func main() {\n\tMPI_Init()\n\tMPI_Finalize()\n}", maxSteps: $steps}' \
    | curl -sf -o /dev/null -d @- "http://$addr/run" \
    || { echo "FAIL: run $i of the session-cap check failed"; exit 1; }
done
warm_after=$(curl -sf "http://$addr/stats" | jq -r .sessions.warm)
[ $((warm_after - warm_before)) -le 16 ] \
  || { echo "FAIL: 32 distinct run blocks added $((warm_after - warm_before)) warm sessions, cap 16"; exit 1; }
curl -sf "http://$addr/healthz" >/dev/null || { echo "FAIL: daemon unhealthy after the session-cap check"; exit 1; }
echo "warm sessions capped: +$((warm_after - warm_before)) for 32 distinct run blocks"

# 10. A run without a schedule takes the default schedule, so two runs
# of a program whose team threads print answer byte-identically.
cat > "$workdir/printing.mh" <<'EOF'
func main() {
	MPI_Init()
	var x = rank()
	parallel num_threads(2) {
		for i = 0 .. 3 {
			print(tid(), i, x)
		}
	}
	MPI_Allreduce(x, x, sum)
	print(x)
	MPI_Finalize()
}
EOF
pkey=$(jq -Rs '{name: "printing.mh", source: .}' "$workdir/printing.mh" \
  | curl -sf -d @- "http://$addr/compile" | jq -r .key)
jq -n --arg key "$pkey" '{key: $key}' > "$workdir/printing.json"
first=$(curl -sf -d @"$workdir/printing.json" "http://$addr/run")
second=$(curl -sf -d @"$workdir/printing.json" "http://$addr/run")
[ "$(jq -r .outcome <<<"$first")" = "clean" ] || { echo "FAIL: printing run: $first"; exit 1; }
[ "$first" = "$second" ] || { echo "FAIL: schedule-less runs differ:"; echo "$first"; echo "$second"; exit 1; }
echo "schedule-less runs answered byte-identically"

# 11. Nested regions past the live-thread limit fail as a runtime error
# naming it, and the daemon lives on.
cat > "$workdir/nested.mh" <<'EOF'
func main() {
	MPI_Init()
	parallel num_threads(32) {
		parallel num_threads(32) {
			parallel num_threads(32) {
				var x = tid()
			}
		}
	}
	MPI_Finalize()
}
EOF
nested=$(jq -Rs '{name: "nested.mh", source: ., maxSteps: 200000}' "$workdir/nested.mh" \
  | curl -sf -d @- "http://$addr/run")
[ "$(jq -r .outcome <<<"$nested")" = "runtime-error" ] \
  && jq -r .error <<<"$nested" | grep -q "limit of 1024 live threads" \
  || { echo "FAIL: nested regions answered $nested"; exit 1; }
curl -sf "http://$addr/healthz" >/dev/null || { echo "FAIL: daemon unhealthy after nested regions"; exit 1; }
echo "nested regions stopped at the live-thread limit, daemon healthy"

# 12. A DFS the budget cuts short answers the same report at any worker
# count. The flag-read racer needs about 100 schedules to exhaust (the
# racer above exhausts in 9), so 16 truncates it.
cat > "$workdir/flagread.mh" <<'EOF'
func main() {
	MPI_Init()
	var flag = 0
	var join = 0
	parallel num_threads(2) {
		single nowait { flag = 1 }
		if tid() == 1 {
			if flag == 0 {
				join = 1
			}
		}
	}
	if join == 1 {
		MPI_Barrier()
	}
	MPI_Finalize()
}
EOF
fkey=$(jq -Rs '{name: "flagread.mh", source: .}' "$workdir/flagread.mh" \
  | curl -sf -d @- "http://$addr/compile" | jq -r .key)
dfs_w1=$(jq -n --arg key "$fkey" '{key: $key, strategy: "dfs", schedules: 16, workers: 1}' \
  | curl -sf -d @- "http://$addr/explore")
dfs_w4=$(jq -n --arg key "$fkey" '{key: $key, strategy: "dfs", schedules: 16, workers: 4}' \
  | curl -sf -d @- "http://$addr/explore")
[ "$(jq -r .exhausted <<<"$dfs_w1")" = "false" ] && [ "$(jq -r .schedules <<<"$dfs_w1")" = "16" ] \
  || { echo "FAIL: flag-read DFS at budget 16 did not truncate: $dfs_w1"; exit 1; }
[ "$dfs_w1" = "$dfs_w4" ] \
  || { echo "FAIL: truncated DFS reports differ:"; echo "$dfs_w1"; echo "$dfs_w4"; exit 1; }
echo "truncated DFS answered the same report at 1 and 4 workers"

echo "PASS: daemon smoke complete"
