#!/usr/bin/env bash
# Chaos harness for the robustness layer (DESIGN.md §5f).
#
# Part 1 — degraded mode: the ring4 example bundle is damaged with one
# instance of every fault class the extract-stage injector models
# (truncated tail, bit-flipped action, dropped rank, short transfer)
# and replayed with --degraded. Each run must exit 3 (partial success)
# with a completeness ratio strictly below 1.0 and must not panic; the
# undamaged bundle must exit 0 with a ratio of exactly 1.0. A "pid bomb"
# (one line claiming p900000000) must fail closed under a 4 GiB
# address-space limit: strict replay and the analyzer exit 1, degraded
# replay trims the rank and exits 3, and nothing aborts on an allocation.
#
# Part 2 — kill and resume: a replay is paused deterministically right
# after its first checkpoint (--stop-after-checkpoints, the designed
# crash hook: the process exits as if killed at a checkpoint boundary),
# then resumed from the TICK1 file. The resumed run must land on the
# byte-identical "simulated time" line, and the paused + resumed timed
# traces must stitch into the uninterrupted run's CSV byte for byte.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${BIN:-./target/release/tit-replay}
[ -x "$BIN" ] || BIN=./target/debug/tit-replay
if [ ! -x "$BIN" ]; then
  echo "chaos_replay: build tit-cli first (cargo build -p tit-cli)" >&2
  exit 2
fi

src=examples/traces/ring4
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# expect_code WANT CMD... — run CMD, demand the exact exit code and the
# absence of a panic or allocation-failure message.
expect_code() {
  local want=$1; shift
  set +e
  "$@" >"$work/out.txt" 2>&1
  local got=$?
  set -e
  if [ "$got" -ne "$want" ]; then
    echo "chaos_replay: FAIL: expected exit $want, got $got: $*" >&2
    cat "$work/out.txt" >&2
    exit 1
  fi
  if grep -qE "panicked|memory allocation" "$work/out.txt"; then
    echo "chaos_replay: FAIL: panic or allocation failure in: $*" >&2
    cat "$work/out.txt" >&2
    exit 1
  fi
}

ratio_of() {
  python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["values"]["degraded.completeness"])' "$1"
}

# damage CLASS — copy ring4 and apply one fault class to it.
damage() {
  rm -rf "$work/damaged"
  cp -r "$src" "$work/damaged"
  local f size
  case $1 in
    truncated)      # file lost its tail, cut mid-line
      f=$work/damaged/SG_process1.trace
      size=$(wc -c <"$f")
      head -c $((size / 2)) "$f" >"$f.cut" && mv "$f.cut" "$f" ;;
    bitflip)        # one bit flipped inside an action keyword
      sed -i '0,/recv/{s/recv/secv/}' "$work/damaged/SG_process2.trace" ;;
    dropped-rank)   # a rank's file deleted outright
      rm "$work/damaged/SG_process3.trace" ;;
    short-transfer) # a copy that stopped early
      f=$work/damaged/SG_process0.trace
      size=$(wc -c <"$f")
      head -c $((size * 3 / 4)) "$f" >"$f.cut" && mv "$f.cut" "$f" ;;
    pid-bomb)       # one line claims a pid far beyond the process set
      sed -i '2i p900000000 compute 1e6' "$work/damaged/SG_process1.trace" ;;
    *) echo "chaos_replay: unknown fault class $1" >&2; exit 2 ;;
  esac
}

echo "chaos_replay: part 1 — degraded replay under every fault class"
for class in truncated bitflip dropped-rank short-transfer; do
  damage "$class"
  m=$work/metrics-$class.json
  expect_code 3 "$BIN" --trace-dir "$work/damaged" --np 4 --degraded --metrics "$m"
  r=$(ratio_of "$m")
  python3 -c "import sys; r=float(sys.argv[1]); sys.exit(0 if 0.0 <= r < 1.0 else 1)" "$r" || {
    echo "chaos_replay: FAIL: $class completeness $r not in [0,1)" >&2
    exit 1
  }
  echo "chaos_replay:   $class: exit 3, completeness $r"
done

m=$work/metrics-clean.json
expect_code 0 "$BIN" --trace-dir "$src" --np 4 --degraded --metrics "$m"
r=$(ratio_of "$m")
if [ "$r" != "1" ] && [ "$r" != "1.0" ]; then
  echo "chaos_replay: FAIL: undamaged bundle completeness $r != 1.0" >&2
  exit 1
fi
echo "chaos_replay:   clean: exit 0, completeness $r"

# bounded CMD... — run CMD under a 4 GiB address-space limit, so a
# loader that sizes anything by a claimed pid aborts fast instead of
# exhausting the machine.
bounded() { (ulimit -v 4194304; exec "$@"); }

damage pid-bomb
expect_code 1 bounded "$BIN" --trace-dir "$work/damaged" --np 4 --jobs 2
expect_code 3 bounded "$BIN" --trace-dir "$work/damaged" --np 4 --degraded
expect_code 1 bounded "$(dirname "$BIN")/tit-analyze" --trace-dir "$work/damaged" --np 4
echo "chaos_replay:   pid-bomb: replay --jobs 2 exit 1, --degraded exit 3, analyze exit 1"

echo "chaos_replay: part 2 — kill at a checkpoint boundary, resume, compare"
"$BIN" --trace-dir "$src" --np 4 --timed-trace "$work/ref.csv" >"$work/ref.out"
ck=$work/ck.tick
expect_code 3 "$BIN" --trace-dir "$src" --np 4 \
  --checkpoint "$ck" --checkpoint-every 5 --stop-after-checkpoints 1 \
  --timed-trace "$work/part-a.csv"
grep -q "paused:" "$work/out.txt"
[ -f "$ck" ] || { echo "chaos_replay: FAIL: no checkpoint written" >&2; exit 1; }
expect_code 0 "$BIN" --trace-dir "$src" --np 4 \
  --resume "$ck" --timed-trace "$work/part-b.csv" --metrics "$work/metrics-resume.json"
cp "$work/out.txt" "$work/resume.out"

# Byte-for-byte: same final "simulated time" line, and the stitched
# partial CSVs reproduce the uninterrupted timed trace exactly.
diff <(grep "^simulated time:" "$work/ref.out") \
     <(grep "^simulated time:" "$work/resume.out")
{ cat "$work/part-a.csv"; tail -n +2 "$work/part-b.csv"; } >"$work/stitched.csv"
diff "$work/stitched.csv" "$work/ref.csv"
echo "chaos_replay:   resume matches the uninterrupted run byte-for-byte"

# The robustness counters land in the metrics files.
python3 scripts/check_telemetry.py --robustness \
  "$work/metrics-dropped-rank.json" "$work/metrics-resume.json"
echo "chaos_replay: OK"
