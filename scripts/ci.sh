#!/bin/sh
# Minimal CI gate: formatting (when ocamlformat is available), build,
# docs, full test suite, a smoke run of the CLI's error paths, the
# static-verifier self-test, the differential fuzz gate and the
# service chaos-soak gate.
set -eu

cd "$(dirname "$0")/.."

# A lost wake-up in the service would hang its callers rather than fail
# them, so every invocation that drives a live service runs under this
# bound and fails CI with a message when it runs out. fd 3 keeps the
# message visible when the caller discards the command's stderr.
exec 3>&2
service_timeout_s=600
bounded() {
  brc=0
  timeout "$service_timeout_s" "$@" || brc=$?
  if [ "$brc" -eq 124 ]; then
    echo "TIMEOUT after ${service_timeout_s}s (a lost wake-up in the" \
      "service?): $*" >&3
    exit 1
  fi
  return "$brc"
}

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune fmt =="
  dune build @fmt || {
    echo "formatting drift — run 'dune fmt'" >&2
    exit 1
  }
else
  echo "== dune fmt == (skipped: ocamlformat not installed)"
fi

echo "== dune build =="
dune build @all

echo "== dune build @doc =="
# @doc must always succeed; the odoc-rendered private docs only run
# where odoc is installed (same guard pattern as ocamlformat above).
dune build @doc
if command -v odoc >/dev/null 2>&1; then
  dune build @doc-private
else
  echo "   (odoc not installed: skipping @doc-private rendering)"
fi

echo "== dune runtest =="
dune runtest

echo "== CLI smoke =="
dune exec -- bin/mhla_cli.exe list >/dev/null
dune exec -- bin/mhla_cli.exe robustness motion_estimation --trials 2 \
  >/dev/null
dune exec -- bin/mhla_cli.exe sweep motion_estimation -j 2 --min 256 \
  --max 1024 >/dev/null
dune exec -- bin/mhla_cli.exe run motion_estimation --search annealing \
  >/dev/null
# The error exits: invalid input (2) from the app registry, the search
# registry and Service.create, which names a bad config field, from
# Request.make, which names a bad value by its wire path ("-e NEEDLE"
# checks stderr for it), and from the diagnostic catalogue, which no
# longer holds the retired MHLA003; then the deadline guard (75). The gates below check exit 1.
expect_exit() {
  want=$1
  shift
  needle=
  if [ "$1" = "-e" ]; then
    needle=$2
    shift 2
  fi
  rc=0
  err=$(bounded dune exec -- bin/mhla_cli.exe "$@" </dev/null 2>&1 \
    >/dev/null) || rc=$?
  if [ "$rc" -ne "$want" ]; then
    echo "expected exit $want for 'mhla $*', got $rc" >&2
    exit 1
  fi
  case "$err" in
    *"$needle"*) ;;
    *)
      echo "expected '$needle' on stderr of 'mhla $*', got: $err" >&2
      exit 1
      ;;
  esac
}
expect_exit 2 run no_such_app
expect_exit 2 run motion_estimation --onchip 0
expect_exit 2 pareto motion_estimation --level 0,128
expect_exit 2 run motion_estimation --search bogus
expect_exit 2 -e 'unknown policy' run qsdpcm --policy te-size
expect_exit 2 serve --stdin -j 0
expect_exit 75 run qsdpcm --deadline-ms 0
expect_exit 2 -e '$.deadline_ms' run motion_estimation --deadline-ms=-1
expect_exit 2 -e '$.faults.trials' robustness motion_estimation --trials 0
expect_exit 2 -e '$.channels' simulate motion_estimation --channels 0
expect_exit 2 -e '$.arch.onchip_bytes' check motion_estimation --onchip 0
expect_exit 2 -e '$.grid[0][0]' pareto motion_estimation --level 0,128
expect_exit 2 -e default_deadline_ms serve --stdin --default-deadline-ms=-1
expect_exit 2 -e '$.deadline_ms' sweep motion_estimation --deadline-ms=-1
expect_exit 2 -e 'unknown diagnostic code' check --explain MHLA003
# The generated-corpus mode of check is gone (the fuzz gate covers its
# programs): cmdliner rejects the flag as a usage error, exit 124. That
# is also timeout's status, which bounded (and so expect_exit) reports
# as a hang, so this parse-only call runs unbounded.
rc=0
dune exec -- bin/mhla_cli.exe check --corpus 1 >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 124 ]; then
  echo "expected exit 124 for 'mhla check --corpus 1', got $rc" >&2
  exit 1
fi

echo "== check gate =="
# The static verifier must accept every bundled application...
for app in $(dune exec -- bin/mhla_cli.exe list 2>/dev/null \
    | tail -n +3 | awk '{print $1}'); do
  dune exec -- bin/mhla_cli.exe check "$app" -q || {
    echo "mhla check $app reported errors" >&2
    exit 1
  }
done
# ...emit well-formed JSON...
if command -v python3 >/dev/null 2>&1; then
  dune exec -- bin/mhla_cli.exe check motion_estimation --json \
    | python3 -m json.tool >/dev/null || {
    echo "mhla check --json is not well-formed JSON" >&2
    exit 1
  }
else
  echo "   (python3 not installed: skipping JSON validation)"
fi
# ...and catch a seeded corruption: a TE extension pushed across a data
# dependency must fail the gate with exit 1 (a silent checker is worse
# than none).
rc=0
dune exec -- bin/mhla_cli.exe check motion_estimation --mutate te -q \
  >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "expected exit 1 for the seeded TE race, got $rc" >&2
  exit 1
fi
# ...and so must a subscript pushed past its extent (bounds, MHLA001)
# and a layer one byte below its recomputed peak (capacity, MHLA201),
# each named by its code in the JSON report.
for pair in bounds:MHLA001 capacity:MHLA201; do
  mutation=${pair%%:*}
  code=${pair#*:}
  rc=0
  out=$(dune exec -- bin/mhla_cli.exe check motion_estimation \
    --mutate "$mutation" --json 2>/dev/null) || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "expected exit 1 for --mutate $mutation, got $rc" >&2
    exit 1
  fi
  echo "$out" | grep -q "\"code\": \"$code\"" || {
    echo "--mutate $mutation did not report $code" >&2
    exit 1
  }
done
# ...export well-formed SARIF 2.1.0 with a populated rules table and
# one fully-located result per finding...
sarif=/tmp/mhla_ci_check.sarif
dune exec -- bin/mhla_cli.exe check motion_estimation --sarif "$sarif" -q
if command -v python3 >/dev/null 2>&1; then
  python3 -c '
import json, sys
d = json.load(open(sys.argv[1]))
if d["version"] != "2.1.0":
    sys.exit("SARIF version is not 2.1.0")
run = d["runs"][0]
for key in ("results", "tool"):
    if key not in run:
        sys.exit(f"SARIF run is missing runs[].{key}")
if not run["tool"]["driver"]["rules"]:
    sys.exit("SARIF rules table is empty")
for r in run["results"]:
    for key in ("ruleId", "level", "message"):
        if key not in r:
            sys.exit(f"SARIF result is missing {key}")
' "$sarif" || exit 1
else
  echo "   (python3 not installed: skipping SARIF validation)"
fi
rm -f "$sarif"
# ...explain any catalogued code on demand...
dune exec -- bin/mhla_cli.exe check --explain MHLA203 \
  | grep -q interference || {
  echo "check --explain MHLA203 did not name its owning pass" >&2
  exit 1
}
# ...catch the interference corruption (a punctured DMA priority
# sequence)...
rc=0
dune exec -- bin/mhla_cli.exe check motion_estimation --mutate interference \
  -q >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "expected exit 1 for the seeded priority hole, got $rc" >&2
  exit 1
fi
# ...catch a planted dead array under --Werror, with the application's
# own pre-existing warning suppressed via .mhla-lint syntax so the
# unmutated run stays clean (proving suppression narrows, not blinds)...
lint_cfg=/tmp/mhla_ci_lint.cfg
printf 'MHLA302 array=subband\n' >"$lint_cfg"
dune exec -- bin/mhla_cli.exe check mp3_filterbank --Werror \
  --lint-config "$lint_cfg" -q || {
  echo "suppressed mp3_filterbank check is not clean under --Werror" >&2
  exit 1
}
rc=0
dune exec -- bin/mhla_cli.exe check mp3_filterbank --Werror \
  --lint-config "$lint_cfg" --mutate lints -q >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "expected exit 1 for the planted dead array, got $rc" >&2
  exit 1
fi
rm -f "$lint_cfg"

echo "== verify-live gate =="
# Verifying the answer must be free of observable effect on the solve:
# a run under --verify-live prints bit-identical stdout to the plain
# run (its report goes to stderr), on an app with and one without TE
# extensions, and under annealing, whose answer is the best state
# seen rather than the search's last position.
for args in motion_estimation qsdpcm "qsdpcm --search anneal"; do
  plain=/tmp/mhla_ci_plain.out
  live=/tmp/mhla_ci_live.out
  # $args is split on purpose: an app name, then its search flags.
  dune exec -- bin/mhla_cli.exe run $args >"$plain" 2>/dev/null
  dune exec -- bin/mhla_cli.exe run $args --verify-live >"$live" 2>/dev/null
  cmp -s "$plain" "$live" || {
    echo "run $args --verify-live stdout differs from the plain solve" >&2
    exit 1
  }
  rm -f "$plain" "$live"
done

echo "== pareto gate =="
# A small budget grid that spans SRAM energy saturation (so the
# branch-and-bound pruning path is exercised) must finish cleanly on
# two applications...
pareto_grid="1024,16384,65536,262144"
for app in motion_estimation edge_detection; do
  dune exec -- bin/mhla_cli.exe pareto "$app" --level "$pareto_grid" \
    >/dev/null || {
    echo "mhla pareto $app failed" >&2
    exit 1
  }
done
# ...emit a well-formed JSON document with a non-empty frontier, and
# produce the same frontier regardless of worker count (stats such as
# pruned counts are timing-dependent under -j > 1; the frontier is
# not allowed to be), on the grid above and on every application over
# the paper-pareto 5x5 grid. Each worker solves its points through one
# reused solve state, so this also pins per app that a reused state
# solves as a fresh one does.
apps=$(dune exec -- bin/mhla_cli.exe list 2>/dev/null | tail -n +3 \
  | awk '{print $1}')
if command -v python3 >/dev/null 2>&1; then
  pareto_j1=/tmp/mhla_ci_pareto_j1.json
  pareto_j4=/tmp/mhla_ci_pareto_j4.json
  same_frontier() {
    app=$1
    shift
    dune exec -- bin/mhla_cli.exe pareto "$app" "$@" -j 1 --json \
      >"$pareto_j1"
    dune exec -- bin/mhla_cli.exe pareto "$app" "$@" -j 4 --json \
      >"$pareto_j4"
    python3 -c '
import json, sys
app = sys.argv[3]
j1 = json.load(open(sys.argv[1]))
j4 = json.load(open(sys.argv[2]))
if not j1["frontier"]:
    sys.exit("pareto --json returned an empty frontier on " + app)
if j1["partial"] or j4["partial"]:
    sys.exit("an undeadlined pareto run reported partial=true on " + app)
if j1["frontier"] != j4["frontier"]:
    sys.exit("-j 1 and -j 4 disagree on the frontier of " + app)
' "$pareto_j1" "$pareto_j4" "$app" || exit 1
  }
  same_frontier motion_estimation --level "$pareto_grid"
  for app in $apps; do
    same_frontier "$app" --level 1024,4096,16384,65536,262144 \
      --level 2048,8192,32768,131072,524288
  done
  rm -f "$pareto_j1" "$pareto_j4"
else
  echo "   (python3 not installed: skipping frontier JSON validation)"
fi
# ...and a size sweep prints the same bytes at -j 1 and -j 2 on every
# application: sweep points carry no timing-dependent statistics.
for app in $apps; do
  sweep_j1=$(dune exec -- bin/mhla_cli.exe sweep "$app" -j 1)
  sweep_j2=$(dune exec -- bin/mhla_cli.exe sweep "$app" -j 2)
  if [ "$sweep_j1" != "$sweep_j2" ]; then
    echo "mhla sweep $app: -j 1 and -j 2 print different reports" >&2
    exit 1
  fi
done

echo "== search decision gate =="
# One short paper-pareto benchmark pass: every app's frontier over the
# 5x5 budget grid must equal perfbench/expected/pareto_frontiers.json
# exactly, so a change to any search decision fails here, not only in
# the benchmark pipeline.
if command -v python3 >/dev/null 2>&1; then
  bench_line=$(python3 perfbench/run.py --workload paper-pareto --seed 1 \
    --seconds 1 --trace 0 2>/dev/null | tail -n 1)
  echo "$bench_line" | python3 -c '
import json, sys
d = json.loads(sys.stdin.read())
if d.get("correct") is not True or d.get("failed") != 0:
    sys.exit("paper-pareto frontiers drifted from perfbench/expected: "
             "correct=%s failed=%s" % (d.get("correct"), d.get("failed")))
' || exit 1
else
  echo "   (python3 not installed: skipping the search decision gate)"
fi

echo "== service decision gate =="
# One short serve-mixed benchmark pass: every anneal, portfolio,
# simulate and fault-rider response the service gives must equal a
# direct replay of the same request, so a change to a search decision
# or to the service's job path fails here too.
if command -v python3 >/dev/null 2>&1; then
  bench_line=$(bounded python3 perfbench/run.py --workload serve-mixed \
    --seed 1 --seconds 1 --trace 0 2>/dev/null | tail -n 1)
  echo "$bench_line" | python3 -c '
import json, sys
d = json.loads(sys.stdin.read())
if d.get("correct") is not True or d.get("failed") != 0:
    sys.exit("serve-mixed responses drifted from their direct replays: "
             "correct=%s failed=%s" % (d.get("correct"), d.get("failed")))
' || exit 1
else
  echo "   (python3 not installed: skipping the service decision gate)"
fi

echo "== simulate gate =="
# The discrete-event simulator must cross-validate the analytic TE
# gain on real applications: exit 0, agreement reported, and every
# stream's divergence inside its own documented tolerance.
for app in motion_estimation wavelet_2d; do
  dune exec -- bin/mhla_cli.exe simulate "$app" >/dev/null || {
    echo "mhla simulate $app failed" >&2
    exit 1
  }
done
if command -v python3 >/dev/null 2>&1; then
  sim_json=/tmp/mhla_ci_simulate.json
  dune exec -- bin/mhla_cli.exe simulate motion_estimation --json \
    >"$sim_json"
  python3 -c '
import json, sys
d = json.load(open(sys.argv[1]))
if not d["checks"]:
    sys.exit("simulate --json reported no streams")
if not d["agreement"]:
    sys.exit("analytic and event-driven TE gains diverged: "
             + json.dumps(d["divergences"]))
for c in d["checks"]:
    dev = abs(c["event_gain_cycles"] - c["analytic_gain_cycles"])
    if dev > c["gain_tolerance_cycles"]:
        sys.exit("%s: divergence %d exceeds tolerance %d"
                 % (c["id"], dev, c["gain_tolerance_cycles"]))
    if not c["neutral_consistent"]:
        sys.exit("neutral event sim drifted from Pipeline.run")
' "$sim_json" || exit 1
  rm -f "$sim_json"
else
  echo "   (python3 not installed: skipping divergence validation)"
fi

echo "== fuzz gate =="
# 200 seeded random programs through the full differential battery —
# all 9 checks: json (wire codec round trip), engine (incremental cost
# engine vs Cost.evaluate, and the greedy and annealing searches vs
# their from-scratch references), xval (pipeline vs analytic stalls,
# zero-fault replay exact), esim (event simulator vs analytic TE gain),
# verifier-greedy and verifier-anneal (static verifier on both
# searches' outputs), interp (trace interpreter vs static access
# counts), pareto (branch-and-bound frontier vs brute force) and policy
# (portfolio winner verifies clean, never worse than greedy) —
# deterministic in --seed. Its verifier-greedy check solves and verifies
# the same generated programs, at the same budgets, that the removed
# `check --corpus 100 --seed 42` gate did (that gate failed on Errors
# only, as this one does).
dune exec -- bin/mhla_cli.exe fuzz --seed 42 --count 200 --jobs 2 -q
# The gate must be live: a seeded engine drift has to fail with exit 1,
# trip the annealing comparison as well as the greedy one, and print a
# shrunk, replayable counterexample.
rc=0
fuzz_out=$(dune exec -- bin/mhla_cli.exe fuzz --seed 42 --count 3 --jobs 1 \
  --mutate engine 2>&1) || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "expected exit 1 for the seeded engine drift, got $rc" >&2
  exit 1
fi
echo "$fuzz_out" | grep -q "replay: mhla fuzz --replay=" || {
  echo "seeded engine drift did not print a replay line" >&2
  exit 1
}
echo "$fuzz_out" | grep -q "shrunk reproducer" || {
  echo "seeded engine drift did not print a shrunk reproducer" >&2
  exit 1
}
echo "$fuzz_out" | grep -q "annealing decisions diverge" || {
  echo "seeded engine drift did not trip the annealing comparison" >&2
  exit 1
}
# The same for the trace-interpreter check: a seeded +1 event drift
# must fail it with exit 1 and a replay line.
rc=0
fuzz_out=$(dune exec -- bin/mhla_cli.exe fuzz --seed 42 --count 3 --jobs 1 \
  --mutate interp 2>&1) || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "expected exit 1 for the seeded interp drift, got $rc" >&2
  exit 1
fi
echo "$fuzz_out" | grep -q "^  interp: " || {
  echo "seeded interp drift did not fail the interp check" >&2
  exit 1
}
echo "$fuzz_out" | grep -q "replay: mhla fuzz --replay=" || {
  echo "seeded interp drift did not print a replay line" >&2
  exit 1
}

echo "== soak gate =="
# The in-process chaos soak: 200 seeded requests (valid solves, fault
# riders, injected crashes, zero deadlines, malformed JSON, oversized
# payloads) through a live 2-worker service; every isolation invariant
# (exactly one in-order response per request, ok payloads bit-identical
# to direct solves) must hold.
bounded dune exec -- bin/mhla_cli.exe soak --requests 200 --seed 42 \
  --jobs 2 -q
# The same chaos mix must survive the CLI path end to end: one JSONL
# response per request, exit 0, and the hostile classes answered with
# structured errors rather than a dead process.
soak_reqs=/tmp/mhla_ci_soak_reqs.jsonl
soak_resps=/tmp/mhla_ci_soak_resps.jsonl
dune exec -- bin/mhla_cli.exe soak --requests 200 --seed 42 \
  --emit-jsonl >"$soak_reqs"
bounded dune exec -- bin/mhla_cli.exe batch "$soak_reqs" --jobs 2 \
  >"$soak_resps" 2>/dev/null
reqs=$(wc -l <"$soak_reqs")
resps=$(wc -l <"$soak_resps")
if [ "$reqs" -ne "$resps" ]; then
  echo "soak batch: $reqs request(s) but $resps response(s)" >&2
  exit 1
fi
# The daemon transport answers the same mix line for line. It runs one
# worker, the default, so this bounded pass drives the wait that spins
# before it parks (a service spins only when each of its domains has a
# CPU).
soak_serve=/tmp/mhla_ci_soak_serve.jsonl
bounded dune exec -- bin/mhla_cli.exe serve --stdin -q \
  <"$soak_reqs" >"$soak_serve"
resps=$(wc -l <"$soak_serve")
if [ "$reqs" -ne "$resps" ]; then
  echo "soak serve --stdin: $reqs request(s) but $resps response(s)" >&2
  exit 1
fi
for out in "$soak_resps" "$soak_serve"; do
  grep -q '"code":"exception"' "$out" || {
    echo "$out: poisoned request did not yield a structured exception" \
      "response" >&2
    exit 1
  }
  grep -q '"code":"json-parse"' "$out" || {
    echo "$out: malformed request did not yield a structured json-parse" \
      "response" >&2
    exit 1
  }
done
rm -f "$soak_reqs" "$soak_resps" "$soak_serve"

echo "== trace smoke =="
trace=/tmp/mhla_ci_trace.json
dune exec -- bin/mhla_cli.exe run motion_estimation --trace "$trace" \
  >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "$trace" >/dev/null || {
    echo "trace is not well-formed JSON" >&2
    exit 1
  }
else
  echo "   (python3 not installed: skipping JSON validation)"
fi
for key in '"traceEvents"' '"ph"' '"displayTimeUnit"' '"otherData"'; do
  grep -q "$key" "$trace" || {
    echo "trace is missing required key $key" >&2
    exit 1
  }
done
rm -f "$trace"

echo "== bench smoke + baseline gate (EXT-ENGINE, EXT-TRACE, EXT-CHECK, EXT-GEN, EXT-SERVE, EXT-PARETO, EXT-POLICY, EXT-ORDER, EXT-WB, EXT-INPLACE, EXT-MODE, EXT-3LEVEL, EXT-SEARCH, EXT-MULTITASK, EXT-GREEDY) =="
# The bench writes BENCH_dev.json into its working directory; run it
# from a scratch dir so CI never litters the checkout. --check fails
# the run when any integer metric differs from the committed
# bench/baseline.json, or a float metric drifts >15% from it.
bench_dir=$(mktemp -d /tmp/mhla_ci_bench.XXXXXX)
repo_root=$(pwd)
dune build bench/main.exe
(cd "$bench_dir" && "$repo_root/_build/default/bench/main.exe" \
  --check "$repo_root/bench/baseline.json" \
  EXT-ENGINE EXT-TRACE EXT-CHECK EXT-GEN EXT-SERVE EXT-PARETO \
  EXT-POLICY EXT-ORDER EXT-WB EXT-INPLACE EXT-MODE EXT-3LEVEL EXT-SEARCH \
  EXT-MULTITASK EXT-GREEDY >/dev/null)
# Every run must leave a machine-readable metrics file with the
# EXT-PARETO and EXT-POLICY keys the experiment log quotes.
if command -v python3 >/dev/null 2>&1; then
  python3 -c '
import json, sys
m = json.load(open(sys.argv[1]))
for key in ("ext_pareto.motion_estimation.pruning_ratio",
            "ext_policy.motion_estimation.winner"):
    if key not in m:
        sys.exit(f"BENCH json is missing {key}")
if m["ext_pareto.motion_estimation.pruning_ratio"] <= 1.0:
    sys.exit("pruning ratio did not exceed 1 on the saturation grid")
' "$bench_dir/BENCH_dev.json" || exit 1
else
  echo "   (python3 not installed: skipping bench metrics validation)"
fi
# The gate must be live: a baseline whose grid size has drifted has to
# fail --check with exit 1.
echo '{"ext_pareto.motion_estimation.grid_points": 50}' \
  >"$bench_dir/drifted.json"
rc=0
(cd "$bench_dir" && "$repo_root/_build/default/bench/main.exe" \
  --check "$bench_dir/drifted.json" EXT-PARETO >/dev/null 2>&1) || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "expected exit 1 for the drifted bench baseline, got $rc" >&2
  exit 1
fi
# Integer keys are exact: a pinned cycle count off by one must fail.
echo '{"ext_order.qsdpcm.fifo": 86041}' >"$bench_dir/off_by_one.json"
rc=0
(cd "$bench_dir" && "$repo_root/_build/default/bench/main.exe" \
  --check "$bench_dir/off_by_one.json" EXT-ORDER >/dev/null 2>&1) || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "expected exit 1 for the off-by-one bench baseline, got $rc" >&2
  exit 1
fi
rm -rf "$bench_dir"

echo "CI OK"
