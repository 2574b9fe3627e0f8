#!/usr/bin/env python3
"""The repository benchmark: two workloads through the production binaries.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline_lu64 --seed 1 --seconds 40 --trace 0

The script builds the release binaries (``tit-*`` and ``perfbench``), makes
the workload's inputs from ``--seed``, measures for ``--seconds`` seconds,
checks every result, and prints one JSON object as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` a
separate traced run reports the per-layer ones. See perfbench/README.md.

Exit codes: 0 when the run completed (``correct`` says whether every check
held), 1 when it could not run (build failure, missing inputs), 2 on usage.
"""

import argparse
import collections
import itertools
import json
import math
import os
import platform as pyplatform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

ANCHOR_LU128 = 0.49595082196536106  # LU.B x128, itmax 12, shared-NIC model
ANCHOR_TINY = 0.0037938352720352586  # LU.S x8, itmax 2 (smoke-test scale)
MIB = float(1 << 20)
WORKLOADS = ("pipeline_lu64", "lu128_store")

# Workload sizes. "tiny" only exists for perfbench/smoke_test.py.
SCALES = {
    "full": {
        "lu64": {"np": 64, "klass": "B", "itmax": 25},
        "lu128": {"np": 128, "klass": "B", "iters": 12, "anchor": ANCHOR_LU128},
        "mem_budget": "16M",
        "corpus": "full",
        "rate": 200.0,
        "open_s": 2.0,
        "closed_s": 0.75,
    },
    "tiny": {
        "lu64": {"np": 4, "klass": "S", "itmax": 2},
        "lu128": {"np": 8, "klass": "S", "iters": 2, "anchor": ANCHOR_TINY},
        "mem_budget": "1M",
        "corpus": "tiny",
        "rate": 60.0,
        "open_s": 0.5,
        "closed_s": 0.25,
    },
}

# The serve corpus: (pattern, np, iters, class) per distinct trace, more
# of them than tit-serve's default cache_cap (8). Requests pick a trace
# from a Zipf law over this order, so the first ones are hot.
CORPUS = {
    "full": [
        ("lu", 8, 2, "S"), ("ring", 16, 100, None), ("allreduce", 16, 50, None),
        ("stencil", 16, 30, None), ("lu", 16, 2, "S"), ("ring", 8, 200, None),
        ("allreduce", 8, 80, None), ("lu", 4, 4, "S"), ("stencil", 4, 100, None),
        ("ring", 32, 60, None), ("ring", 32, 30, None), ("allreduce", 32, 30, None),
        ("stencil", 16, 20, None), ("lu", 8, 6, "S"), ("ring", 16, 150, None),
        ("lu", 32, 1, "S"),
    ],
    "tiny": [
        ("lu", 4, 1, "S"), ("ring", 4, 10, None), ("allreduce", 4, 10, None),
        ("stencil", 4, 10, None), ("lu", 8, 1, "S"), ("ring", 8, 10, None),
        ("allreduce", 8, 10, None), ("stencil", 16, 5, None), ("ring", 16, 10, None),
        ("lu", 16, 1, "S"),
    ],
}
VARIANTS = [
    (plat, net, coll)
    for plat in ("bordereau", "gdx")
    for net in ("mpi", "flow", "constant")
    for coll in ("binomial", "flat")
]
ZIPF_S = 1.0
MIX_BLOCK = 240  # requests per exactly-mixed block
SAT_RAMP_S = 0.25  # closed-loop ramp-up left out of each phase
WARM_S = 1.0  # closed-loop warm-up of the daemon in set-up
MIN_ROUNDS = 4  # measurement rounds of a run, at least

# Span name -> per-layer self-time metric (see perfbench/src/batch.rs).
SPAN_METRIC = {
    "extract": "extract.busy_s",
    "tib2_write": "core.tib2_write_s",
    "lint": "lint.busy_s",
    "analyze": "analyze.busy_s",
    "decode": "core.decode_s",
    "expand": "replay.expand_s",
    "run_checked": "simkern.self_s",
    "observe": "obs.callback_s",
    "commit": "obs.commit_s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values (the failures are counted)."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


class Failures:
    """Operations attempted and failed; a failure never stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"FAILED: {what}")
        return ok


Child = collections.namedtuple("Child", "rc wall")

# One load phase as `perfbench open-loop|closed-loop` logged it: sends
# {id: (scheduled, sent)}, recvs {id: (received, response)}, unsent
# {id: reason} for requests that could not be written, refused [reason]
# per connection that could not be opened.
Phase = collections.namedtuple("Phase", "sends recvs unsent refused")


def run_child(argv, stdout=None, timeout=170.0):
    """Runs `argv` to completion and times it; a child over `timeout` is killed."""
    out = open(stdout, "wb") if stdout else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out)
        try:
            p.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
        return Child(p.returncode, time.perf_counter() - t0)
    finally:
        if stdout:
            out.close()


def read_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


class Bench:
    def __init__(self, args, root):
        self.args = args
        self.scale = SCALES[args.scale]
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.target = os.path.abspath(os.path.join(root, target))
        self.bins = os.path.join(self.target, "release")
        self.work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
        self.fail = Failures()
        self.setup_steps = {}

    def bin(self, name):
        return os.path.join(self.bins, name)

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    # ---- set-up ------------------------------------------------------

    def setup_step(self, name, fn, repeat):
        """Runs `fn` `repeat` times; the step's set-up time is the median.

        Cheap steps repeat; a step of seconds runs once, as its time
        is better spent on more batch iterations."""
        walls = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            fn()
            walls.append(time.perf_counter() - t0)
        self.setup_steps[name] = statistics.median(walls)

    def setup_s(self):
        return sum(self.setup_steps.values())

    # ---- batch pieces ------------------------------------------------

    def replay_store(self, store, out_dir, outputs=False, kernel=None):
        """One `tit-replay --store` process; returns (child, sim, actions, rss_mib)."""
        os.makedirs(out_dir, exist_ok=True)
        m = os.path.join(out_dir, "metrics.json")
        argv = [self.bin("tit-replay"), "--store", store, "--mem-budget",
                self.scale["mem_budget"], "--metrics", m]
        if outputs:
            argv += ["--profile", os.path.join(out_dir, "profile.json"),
                     "--time-resolved", os.path.join(out_dir, "timeres.json"),
                     "--timed-trace", os.path.join(out_dir, "timed.csv")]
        if kernel:
            argv += ["--kernel", kernel]
        c = run_child(argv, stdout=os.path.join(out_dir, "replay.out"))
        doc = read_json(m) if c.rc == 0 else None
        if not doc:
            return c, None, 0, 0.0
        vals, counters = doc.get("values", {}), doc.get("counters", {})
        return (c, vals.get("replay.simulated_time"), counters.get("replay.actions", 0),
                vals.get("mem.peak_rss", 0.0) / MIB)

    def cli_pipeline(self, it_dir, tau, np):
        """extract -> lint -> analyze -> replay as four processes.

        Returns (wall, replay child, sim, actions, rss_mib, bounds, ok)."""
        os.makedirs(it_dir, exist_ok=True)
        ti, store = os.path.join(it_dir, "ti"), os.path.join(it_dir, "trace.tib2")
        an = os.path.join(it_dir, "analysis.json")
        t0 = time.perf_counter()
        stages = [
            run_child([self.bin("tit-extract"), "--tau", tau, "--np", str(np), "--out", ti,
                       "--tib2", store], stdout=os.path.join(it_dir, "extract.out")),
            run_child([self.bin("tit-lint"), "--trace-dir", ti, "--np", str(np)],
                      stdout=os.path.join(it_dir, "lint.out")),
            run_child([self.bin("tit-analyze"), "--trace-dir", ti, "--np", str(np),
                       "--json", an]),
        ]
        rep, sim, actions, rss = self.replay_store(store, it_dir, outputs=True)
        wall = time.perf_counter() - t0
        ok = all(c.rc == 0 for c in stages) and rep.rc == 0
        doc = read_json(an) or {}
        bounds = doc.get("bounds")
        return wall, rep, sim, actions, rss, bounds, ok

    # ---- serve pieces ------------------------------------------------

    def make_corpus(self):
        """Writes every corpus trace as a trace directory and a TIB2 store.

        The seed scales flops and bytes slightly: the answers change with
        the seed, the cost of computing them does not."""
        specs = CORPUS[self.scale["corpus"]]
        rng = random.Random(f"corpus:{self.args.seed}")
        self.corpus = []
        for i, (pattern, np, iters, klass) in enumerate(specs):
            d, s = self.path("corpus", f"t{i}"), self.path("corpus", f"t{i}.tib2")
            shutil.rmtree(d, ignore_errors=True)
            extra = ["--class", klass] if klass else [
                "--flops", repr(1e6 * rng.uniform(0.9, 1.1)),
                "--bytes", repr(1e4 * rng.uniform(0.9, 1.1))]
            base = [self.bin("tit-gen"), "--np", str(np), "--pattern", pattern,
                    "--iters", str(iters)] + extra
            for target in (["--out", d], ["--tib2", s]):
                if run_child(base + target).rc != 0:
                    raise RuntimeError(f"tit-gen failed for corpus trace {i}")
            self.corpus.append({"dir": d, "store": s, "np": np})

    def request(self, rid, t, variant):
        plat, net, coll = variant
        line = json.dumps({"op": "replay", "id": rid, "trace_dir": self.corpus[t]["dir"],
                           "np": self.corpus[t]["np"], "platform": plat, "network": net,
                           "collectives": coll}, separators=(",", ":"))
        return line, f"{t}|{plat}|{net}|{coll}"

    def mix(self, rng):
        """Endless (trace, variant) draws in blocks of MIX_BLOCK requests.

        Each block holds the exact Zipf share of every trace and every
        variant equally often, in seeded order: the seed changes which
        request comes when, never how much work a run asks for."""
        n = len(self.corpus)
        weights = [1.0 / (k + 1) ** ZIPF_S for k in range(n)]
        per = MIX_BLOCK / sum(weights)
        traces = [t for t, w in enumerate(weights) for _ in range(max(1, round(w * per)))]
        while True:
            variants = VARIANTS * (len(traces) // len(VARIANTS) + 1)
            rng.shuffle(variants)
            block = list(zip(traces, variants))
            rng.shuffle(block)
            yield from block

    def write_plan(self, name, prefix, offsets):
        """A seeded request plan: one request per offset, drawn from `mix`."""
        draws = self.mix(random.Random(f"plan:{name}:{self.args.seed}"))
        lines = []
        for i, offset in enumerate(offsets):
            t, v = next(draws)
            rid = f"{prefix}{i}"
            line, key = self.request(rid, t, v)
            self.key_of[rid] = key
            lines.append(f"{rid}\t{offset!r}\t{line}")
        path = self.path(f"plan-{name}.tsv")
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        return path

    def make_plans(self):
        """The warm-up and closed-loop plans; they only need to outlast a
        phase at any speed. Open-loop plans are made per round."""
        self.key_of = {}
        cap = int(4000 * (max(self.scale["closed_s"], WARM_S) + SAT_RAMP_S)) + 64
        self.plans = {name: self.write_plan(name, name[0], [0.0] * cap)
                      for name in ("warm", "closed")}

    def open_plan(self, k):
        """Open-loop phase `k`: Poisson arrivals at the fixed rate for
        `open_s` seconds, with the exponential gaps drawn by stratified
        sampling: each phase holds the same gap quantiles in seeded order,
        so seeds change when bursts come, not how many."""
        rate = self.scale["rate"]
        rng = random.Random(f"open:{k}:{self.args.seed}")
        n = max(1, round(rate * self.scale["open_s"]))
        gaps = [-math.log(1.0 - (i + rng.random()) / n) / rate for i in range(n)]
        rng.shuffle(gaps)
        return self.write_plan(f"open{k}", f"o{k}-", list(itertools.accumulate(gaps)))

    def compute_refs(self):
        """In-process reference replays of every (trace, variant) a request
        can ask for."""
        req_path, out_path = self.path("refs-in.tsv"), self.path("refs-out.tsv")
        with open(req_path, "w") as f:
            for t in range(len(self.corpus)):
                for v in VARIANTS:
                    line, key = self.request("ref", t, v)
                    f.write(f"{key}\t{line}\n")
        c = run_child([self.bin("perfbench"), "refs", "--requests", req_path, "--out", out_path])
        self.refs = {}
        if c.rc != 0:
            self.fail.op(False, "reference replays for the serve corpus")
            return
        with open(out_path) as f:
            for line in f:
                key, sim, _ = line.rstrip("\n").split("\t")
                self.refs[key] = float(sim)

    def start_daemon(self):
        self.serve_log = self.path("serve-stdout.txt")
        self.access_log = self.path("access.ndjson")
        out = open(self.serve_log, "wb")
        self.daemon = subprocess.Popen(
            [self.bin("tit-serve"), "--workers", "2", "--access-log", self.access_log,
             "--drain-on-stdin"], stdin=subprocess.PIPE, stdout=out)
        out.close()
        deadline = time.time() + 30
        while time.time() < deadline:
            with open(self.serve_log) as f:
                text = f.read()
            if "listening on" in text:
                self.addr = text.split("listening on", 1)[1].split()[0]
                return
            if self.daemon.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError("tit-serve did not start")

    def stop_daemon(self):
        d = getattr(self, "daemon", None)
        if d is None:
            return
        self.daemon = None
        try:
            d.stdin.close()
        except OSError:
            pass
        try:
            d.wait(timeout=60)
        except subprocess.TimeoutExpired:
            d.kill()
            d.wait()

    def serve_counters(self):
        """The daemon's counters; a failed query is one failed operation."""
        try:
            with socket.create_connection(tuple(self.addr.rsplit(":", 1)), timeout=30) as s:
                s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                s.sendall(b'{"op":"metrics"}\n')
                buf = b""
                while not buf.endswith(b"\n"):
                    chunk = s.recv(65536)
                    if not chunk:
                        break
                    buf += chunk
            return json.loads(buf)["metrics"]["counters"]
        except (OSError, ValueError, KeyError, TypeError) as e:
            self.fail.op(False, f"metrics query: {e}")
            return {}

    def load(self, mode, plan, seconds=None):
        """One load phase; returns its Phase. A generator that fails is
        one failed operation, and the phase is then empty."""
        out = self.path(f"load-{mode}-{os.path.basename(plan)}.tsv")
        argv = [self.bin("perfbench"), mode, "--addr", self.addr, "--plan", plan, "--out", out]
        if seconds is not None:
            argv += ["--seconds", repr(seconds)]
        phase = Phase({}, {}, {}, [])
        if not self.fail.op(run_child(argv).rc == 0, f"perfbench {mode} on {plan}"):
            return phase
        with open(out) as f:
            for line in f:
                parts = line.rstrip("\n").split("\t", 3)
                if parts[0] == "S":
                    phase.sends[parts[1]] = (float(parts[2]), float(parts[3]))
                elif parts[0] == "U":
                    phase.unsent[parts[1]] = parts[2]
                elif parts[0] == "E":
                    phase.refused.append(parts[1])
                else:
                    resp = json.loads(parts[2])
                    phase.recvs[resp.get("id", "")] = (float(parts[1]), resp)
        return phase

    def check_responses(self, phase, label):
        """Counts each planned request as one operation: written, answered
        ok, with the reference answer. A refused connection counts too."""
        for why in phase.refused:
            self.fail.op(False, f"{label}: connection refused: {why}")
        for rid, why in phase.unsent.items():
            self.fail.op(False, f"{label} {rid}: not sent: {why}")
        sends, recvs = phase.sends, phase.recvs
        for rid in sends:
            got = recvs.get(rid)
            if got is None:
                self.fail.op(False, f"{label} {rid}: no response")
                continue
            resp = got[1]
            ref = self.refs.get(self.key_of.get(rid))
            ok = resp.get("status") == "ok" and ref is not None \
                and resp.get("simulated_time") == ref
            self.fail.op(ok, f"{label} {rid}: {resp.get('status')} "
                             f"{resp.get('simulated_time')!r} != reference {ref!r}")

    def serve_setup(self):
        """Sets up the serve phases every workload carries: the corpus, the
        references, and the daemon, warmed by WARM_S s of closed loop."""
        self.setup_step("serve_corpus", self.make_corpus, 3)
        self.make_plans()
        self.setup_step("serve_refs", self.compute_refs, 1)
        warm = []

        def start_and_warm():
            self.start_daemon()
            warm.append(self.load("closed-loop", self.plans["warm"], WARM_S))

        self.setup_step("serve_start", start_and_warm, 1)
        self.check_responses(warm[0], "warm-up")
        self.open_sends, self.open_recvs = {}, {}

    # Each load phase runs on fresh connections: whether responses wait
    # on the client's delayed ACK settles per connection, so a run
    # samples several.

    def open_phase(self, k):
        """Open-loop phase `k`; its requests join `open_sends`/`open_recvs`."""
        ph = self.load("open-loop", self.open_plan(k))
        self.check_responses(ph, f"open-loop {k}")
        self.open_sends.update(ph.sends)
        self.open_recvs.update(ph.recvs)

    def open_latencies(self):
        """Latency in ms of every answered open-loop request, from its
        scheduled send time."""
        return [(self.open_recvs[rid][0] - sched) * 1e3
                for rid, (sched, _) in self.open_sends.items() if rid in self.open_recvs]

    def closed_phase(self, label):
        """A closed-loop phase; returns the rate of `ok` responses after a
        SAT_RAMP_S ramp, from the first to the last of them."""
        per = self.scale["closed_s"]
        ph = self.load("closed-loop", self.plans["closed"], SAT_RAMP_S + per)
        self.check_responses(ph, f"closed-loop {label}")
        done = sorted(t for t, resp in ph.recvs.values()
                      if SAT_RAMP_S <= t < SAT_RAMP_S + per and resp.get("status") == "ok")
        return (len(done) - 1) / (done[-1] - done[0]) if len(done) > 1 else 0.0

    def serve_layers(self, before, after):
        """Per-layer serve metrics of the open-loop phases, from the access
        log and the daemon's counters `before` and `after` them."""
        sends, recvs = self.open_sends, self.open_recvs
        spans = {}
        with open(self.access_log) as f:
            for line in f:
                try:
                    rec = json.loads(line)
                except ValueError:
                    continue
                if rec.get("event") == "done" and rec.get("id") in sends:
                    spans[rec["id"]] = rec
        m = {}
        for name in ("queue", "load", "replay", "respond"):
            vals = [spans[r][f"{name}_s"] * 1e3 for r in spans]
            m[f"serve.{name}_ms.p50"] = percentile(vals, 50)
            m[f"serve.{name}_ms.p99"] = percentile(vals, 99)
        unattr = [(recvs[r][0] - sends[r][1]) * 1e3
                  - sum(spans[r][f"{n}_s"] for n in ("queue", "load", "replay", "respond")) * 1e3
                  for r in spans if r in recvs]
        lag = [(sends[r][1] - sends[r][0]) * 1e3 for r in sends]
        m["serve.unattributed_ms.p50"] = percentile(unattr, 50)
        m["serve.unattributed_ms.p99"] = percentile(unattr, 99)
        m["serve.gen_lag_ms.p50"] = percentile(lag, 50)
        m["serve.gen_lag_ms.p99"] = percentile(lag, 99)

        def delta(k):
            return after.get(f"serve.{k}", 0) - before.get(f"serve.{k}", 0)

        hits, misses = delta("cache_hits"), delta("cache_misses")
        m["serve.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        m["serve.preemptions"] = delta("preemptions")
        m["serve.shed"] = delta("shed")
        return m

    # ---- traced batch run --------------------------------------------

    def traced(self, extra_args, cli_wall, cli_sims):
        """Runs `perfbench trace-batch`; returns the per-layer batch metrics."""
        out = self.path("traced.json")
        argv = [self.bin("perfbench"), "trace-batch", "--work", self.path("traced"),
                "--out", out, "--mem-budget", self.scale["mem_budget"]] + extra_args
        c = run_child(argv)
        doc = read_json(out) if c.rc == 0 else None
        if not self.fail.op(doc is not None, "traced run"):
            return {}
        sims = [r["simulated_time"] for r in doc["replays"]]
        self.fail.op(sims == cli_sims,
                     f"traced simulated times {sims!r} differ from the CLI's {cli_sims!r}")
        m = {v: 0.0 for v in SPAN_METRIC.values()}
        root = None
        for s in doc["spans"]:
            if s["parent"] is None:
                root = s
            if s["name"] in SPAN_METRIC:
                m[SPAN_METRIC[s["name"]]] += s["self_s"]
        c = doc["counters"]
        solves = max(1, c["solves"])
        m.update({
            "core.tib2_bytes": c["tib2_bytes"],
            "core.segment_faults": c["segment_faults"],
            "core.segment_evictions": c["segment_evictions"],
            "replay.actions": sum(r["actions"] for r in doc["replays"]),
            "simkern.solves": c["solves"],
            "simkern.constraints_per_solve": c["constraints_touched"] / solves,
            "simkern.vars_per_solve": c["vars_touched"] / solves,
            "simkern.islands": c["islands"],
            "simkern.heap_pushes": c["heap_pushes"],
            "simkern.lazy_rekeys": c["lazy_rekeys"],
            "pipeline.traced_wall_s": root["dur_s"],
            "pipeline.untraced_wall_s": cli_wall,
            "trace.overhead_s": root["dur_s"] - cli_wall,
        })
        m["pipeline.unattributed_s"] = root["dur_s"] - sum(m[v] for v in SPAN_METRIC.values())
        return m

    # ---- workloads ---------------------------------------------------
    #
    # Each workload does its set-up and returns (one, traced_args):
    # `one(i)` runs batch iteration `i` through the CLI, checks it, and
    # returns (wall, replay wall, actions, peak RSS MiB, simulated times);
    # `traced_args` make `perfbench trace-batch` do the same work in
    # process.

    def pipeline_lu64(self):
        cfg = self.scale["lu64"]
        np, tau = cfg["np"], self.path("tau")

        def acquire():
            shutil.rmtree(tau, ignore_errors=True)
            c = run_child([self.bin("tit-acquire"), "--workload", "lu", "--class", cfg["klass"],
                           "--np", str(np), "--itmax", str(cfg["itmax"]), "--out", tau,
                           "--seed", str(self.args.seed)], stdout=self.path("acquire.out"))
            if c.rc != 0:
                raise RuntimeError("tit-acquire failed")

        def oracle():
            # The reference kernel's answer on the same traces: computed
            # once, every measured replay must equal it bit for bit.
            d = self.path("oracle")
            c = run_child([self.bin("tit-extract"), "--tau", tau, "--np", str(np), "--out",
                           os.path.join(d, "ti"), "--tib2", os.path.join(d, "trace.tib2")],
                          stdout=self.path("oracle-extract.out"))
            _, sim, _, _ = self.replay_store(os.path.join(d, "trace.tib2"), d,
                                             kernel="reference")
            self.fail.op(c.rc == 0 and sim is not None, "reference-kernel oracle replay")
            self.oracle = sim
            shutil.rmtree(d, ignore_errors=True)

        self.setup_step("acquire", acquire, 1)
        self.setup_step("oracle", oracle, 1)
        self.serve_setup()

        def one(i):
            d = self.path(f"it{i}")
            wall, rep, sim, actions, rss, bounds, ok = self.cli_pipeline(d, tau, np)
            inside = bounds is not None and sim is not None and \
                bounds["lower_s"] <= sim <= bounds["upper_s"]
            self.fail.op(ok and sim is not None and sim == self.oracle and inside,
                         f"pipeline iteration {i}: simulated {sim!r}, oracle {self.oracle!r}, "
                         f"bounds {bounds!r}")
            shutil.rmtree(d, ignore_errors=True)
            return wall, rep.wall, actions, rss, [sim]

        return one, ["--tau", tau, "--np", str(np), "--outputs"]

    def lu128_store(self):
        cfg = self.scale["lu128"]
        store = self.path("lu128.tib2")
        anchor = self.args.anchor if self.args.anchor is not None else cfg["anchor"]

        def gen():
            c = run_child([self.bin("tit-gen"), "--tib2", store, "--np", str(cfg["np"]),
                           "--pattern", "lu", "--class", cfg["klass"], "--iters",
                           str(cfg["iters"])], stdout=self.path("gen.out"))
            if c.rc != 0:
                raise RuntimeError("tit-gen failed")

        self.setup_step("generate", gen, 3)
        self.serve_setup()

        def one(i):
            d = self.path(f"it{i}")
            c, sim, actions, rss = self.replay_store(store, d)
            self.fail.op(c.rc == 0 and sim == anchor,
                         f"lu128 replay {i}: simulated {sim!r}, anchor {anchor!r}")
            shutil.rmtree(d, ignore_errors=True)
            return c.wall, c.wall, actions, rss, [sim]

        return one, ["--stores", store]

    def run(self):
        os.makedirs(self.work, exist_ok=True)
        try:
            one, traced_args = getattr(self, self.args.workload)()
            t0 = time.perf_counter()

            def more(done):
                return done < MIN_ROUNDS or time.perf_counter() - t0 < self.args.seconds

            if self.args.trace:
                wall, _, _, _, sims = one(0)
                m = self.traced(traced_args, wall, sims)
                before, k = self.serve_counters(), 0
                while more(k):
                    self.open_phase(k)
                    k += 1
                m.update(self.serve_layers(before, self.serve_counters()))
                return m
            # Rounds until --seconds have passed, each a batch iteration
            # and then twice an open-loop and a closed-loop phase, so that
            # every metric samples the whole run rather than one stretch
            # of it: the machine's speed wanders over seconds. Batch and
            # saturation metrics are medians over their samples; latency
            # percentiles pool every open-loop request of the run.
            samples, rates = [], []
            while more(len(samples)):
                k = len(samples)
                samples.append(one(k))
                for j in range(2):
                    self.open_phase(2 * k + j)
                    rates.append(self.closed_phase(2 * k + j))
                w, rw, n, _, _ = samples[-1]
                log(f"round {k}: pipeline {w:.3f} s, replay {n / rw:.0f} actions/s, "
                    f"closed loop {rates[-2]:.1f} {rates[-1]:.1f} req/s")
            lat = self.open_latencies()
            log(f"{len(samples)} rounds in {time.perf_counter() - t0:.1f} s, "
                f"{len(lat)} open-loop latencies")
            return {
                "pipeline_s": statistics.median(x[0] for x in samples),
                "replay_actions_per_s": statistics.median(x[2] / x[1] for x in samples),
                "replay_peak_rss_mib": statistics.median(x[3] for x in samples),
                "serve_p50_ms": percentile(lat, 50),
                "serve_p99_ms": percentile(lat, 99),
                "serve_sat_rps": statistics.median(rates),
                "setup_s": self.setup_s(),
            }
        finally:
            self.stop_daemon()


def environment(args, root):
    """The run environment, recorded with every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def cmd(argv):
        try:
            return subprocess.run(argv, cwd=root, capture_output=True, text=True,
                                  timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "kernel": pyplatform.release(),
        "rustc": cmd(["rustc", "-V"]),
        "commit": cmd(["git", "rev-parse", "HEAD"]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def build(root, target):
    """Release builds of the CLI binaries and of the benchmark's own tool."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for argv in (
        ["cargo", "build", "--release", "--offline", "-p", "tit-cli", "-p", "tit-serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
    ):
        r = subprocess.run(argv, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=880)
        if r.returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=tuple(SCALES), default="full")
    ap.add_argument("--anchor", type=float, default=None,
                    help="override lu128_store's expected simulated time (smoke test)")
    args = ap.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates"))):
        log("perfbench: run from the root of a repository checkout (Cargo.toml, crates/)")
        return 1
    bench = Bench(args, root)
    if not build(root, bench.target):
        log("perfbench: build failed")
        return 1
    env = environment(args, root)
    print("env: " + json.dumps(env, sort_keys=True), flush=True)

    # Children inherit our process group; a signal must not leave them running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        metrics = bench.run()
    except RuntimeError as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    f = bench.fail
    for k in sorted(bench.setup_steps):
        print(f"setup step {k:<14} {bench.setup_steps[k]:.4f} s")
    for k, unit in names.items():
        print(f"{k:<32} {metrics.get(k, 0.0):>16.6f} {unit}")
    ratio = f.failed / f.attempted if f.attempted else 1.0
    print(f"failed_ratio {ratio:.6f} ({f.failed}/{f.attempted} operations)")
    result = {
        "correct": f.failed == 0 and f.attempted > 0,
        "attempted": max(1, f.attempted),
        "failed": f.failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": unit} for k, unit in names.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
