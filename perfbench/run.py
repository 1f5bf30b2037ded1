#!/usr/bin/env python3
"""Repository benchmark: drives the release `hisres` binary end to end.

    python3 perfbench/run.py --workload serve_static|serve_live|train \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

`--trace 0` is the end-to-end run: only the `hisres` binary does the work
(JSONL over loopback TCP for `serve`, the CLI for `train`/`eval`/
`predict`), and the end-to-end metrics are printed. `--trace 1` runs the
same end-to-end run, then replays the workload's operation stream in
process with `perfbench-tracer` (spans around each layer's public calls)
and prints the per-layer metrics. The last stdout line is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the line
before it records provenance. Any wrong answer exits non-zero without a
result. `--self-check` runs every workload at toy size, both modes, and
validates the metric set against `BENCHMARK.json`. See README.md.
"""

import argparse
import hashlib
import json
import math
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = os.cpu_count() or 1

# Fixed load and sizes. Changing any of these changes what the benchmark
# measures; a change that claims a gain must not touch them.
STATIC_RATE = 12.0            # open-loop Poisson arrivals per second
STATIC_SHARES = (0.35, 0.25, 0.4)  # of --seconds: open loop, closed loop
                              # of single queries, of bursts
LIVE_STEP_S = 0.09            # one ingest + its forecast queries per step
LIVE_OPEN_SHARE = 0.5         # of --seconds; the rest is the closed loop
LIVE_QUERIES_PER_STEP = 32    # sampled forecasts per step, and queries per
BURST = 32                    # capacity burst: well inside the default queue of 64
TRAIN_EPOCHS = 16             # early stopping (patience 3) may end it sooner
PREP_EPOCHS = 1               # weights for the serve workloads (not timed)
SETUP_LAUNCHES = 7
PREDICT_SAMPLES = 3
WINDOWS = 7                   # CPU sub-measurements per phase; the median counts
LATE_LIMIT_MS = 10.0          # open-loop generator lateness that voids a run
MAX_INFLIGHT = 64             # the server's default admission queue: the open
                              # loop never has more requests unanswered, so a
                              # slow server shows as latency, not as rejections
REPLY_TIMEOUT_S = 30.0
RUN_DEADLINE_S = 170.0
BUILD_TIMEOUT_S = 850.0

# BENCHMARK.json is the one list of workloads and metrics (name -> unit).
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Per-layer metrics each workload exercises; every other one reads 0
# there (no span of that layer ran). The self-check enforces both.
_SERVE = {
    "serve.query_p50_ms", "serve.query_p90_ms", "serve.query_rps", "serve.queries_per_cpu_s",
    "serve.setup_wall_s", "serve.parse_us",
    "serve.engine_ms", "serve.engine_self_ms", "serve.frontend_ms", "eval.score_topk_ms", "eval.pairs_per_batch", "eval.rank_s", "model.encode_global_ms",
    "model.decode_topk_ms", "graph.relevant_graph_us", "checkpoint.load_ms",
    "trace.overhead_frac", "gen.late_p90_ms", "model.hits10", "model.mrr",
    "gen.host_steal_frac",
}
EXERCISED = {
    "serve_static": _SERVE | {"model.encode_local_ms", "graph.relevant_edges"},
    "serve_live": _SERVE | {
        "serve.ingest_p50_ms", "serve.ingest_p90_ms", "serve.fresh_p50_ms",
        "model.state_local_ms", "model.advance_ms", "graph.relevant_edges",
        "graph.add_snapshot_us", "ingest.apply_ms", "ingest.open_ms",
        "ingest.replayed_records", "wal.append_ms", "wal.bytes_per_record",
    },
    "train": {
        "eval.rank_s", "graph.add_snapshot_us", "checkpoint.load_ms", "train.graph_ms",
        "train.forward_ms", "train.backward_ms", "train.clip_ms", "train.adam_ms",
        "train.steps", "train.epoch_s", "trace.overhead_frac", "model.hits10", "model.mrr",
        "gen.host_steal_frac",
    },
}
# Exercised metrics whose value may legitimately be 0 or negative.
SIGNED = {"serve.frontend_ms", "trace.overhead_frac", "gen.host_steal_frac"}


class BenchError(Exception):
    """A failed or invalid run: reported on stderr, exit code 1."""


# ---------------------------------------------------------------- processes

CHILDREN = []


def kill_children():
    for p in CHILDREN:
        if p.poll() is None:
            try:
                p.kill()
            except OSError:
                pass
    for p in CHILDREN:
        try:
            p.wait(timeout=10)
        except (subprocess.TimeoutExpired, OSError):
            pass
    CHILDREN.clear()


def spawn(argv, **kw):
    p = subprocess.Popen(argv, **kw)
    CHILDREN.append(p)
    return p


def reap(p, timeout):
    """Waits for `p` (killing it at the deadline); returns (exit code, CPU
    seconds, peak RSS in MiB). The peak is the kernel's high-water RSS of
    the process (VmHWM), as wait4 reports it in ru_maxrss."""
    deadline = time.monotonic() + timeout
    killed = False
    while True:
        try:
            pid, status, ru = os.wait4(p.pid, os.WNOHANG)
        except ChildProcessError:
            return (p.returncode if p.returncode is not None else -1), 0.0, 0.0
        if pid == p.pid:
            p.returncode = os.waitstatus_to_exitcode(status)
            if p in CHILDREN:
                CHILDREN.remove(p)
            return ((-9 if killed else p.returncode), ru.ru_utime + ru.ru_stime,
                    ru.ru_maxrss / 1024.0)
        if time.monotonic() > deadline and not killed:
            p.kill()
            killed = True
            deadline = time.monotonic() + 10
        elif killed and time.monotonic() > deadline:
            raise BenchError(f"process {p.args[:2]} did not exit after SIGKILL")
        time.sleep(0.002)


def proc_cpu_s(pid):
    """CPU seconds a live process's threads have run, from the nanosecond
    runtimes in /proc/<pid>/task/*/schedstat. Threads that already exited
    are not counted, so take deltas over phases in which none exits."""
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as f:
                total += int(f.read().split()[0])
        except FileNotFoundError:
            pass  # exited since the listing
    return total / 1e9


def run_cli(argv, timeout):
    """Runs one CLI step to completion; returns (code, stdout, stderr,
    CPU seconds)."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        p = spawn(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        code, cpu, _ = reap(p, timeout)
        out.seek(0)
        err.seek(0)
        return code, out.read().decode(), err.read().decode(), cpu


# -------------------------------------------------------------------- build

def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def build():
    """Builds `hisres` and `perfbench-tracer` offline (a no-op when fresh)."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        raise BenchError(f"no hisres workspace at {ROOT}")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for argv in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "hisres-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "tracer" / "Cargo.toml")],
    ):
        p = spawn(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=sys.stderr)
        code, _, _ = reap(p, BUILD_TIMEOUT_S)
        if code != 0:
            raise BenchError(f"build failed: {' '.join(argv)}")
    return target_dir() / "release" / "hisres", target_dir() / "release" / "perfbench-tracer"


def provenance(workload, seed, seconds, sizes):
    def cmd(argv):
        try:
            return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=20).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            return None

    h = hashlib.sha256()
    for path in sorted(ROOT.glob("crates/*/src/**/*.rs")) + sorted(ROOT.glob("crates/*/Cargo.toml")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "nproc": NPROC,
        "pool_threads": int(os.environ.get("HISRES_THREADS") or NPROC),
        "rustc": cmd(["rustc", "--version"]),
        "git_rev": cmd(["git", "rev-parse", "HEAD"]),
        "source_sha256": h.hexdigest(),
        "sizes": sizes,
    }


# ------------------------------------------------------------------- client

class Client:
    """Loopback JSONL client: `n` connections, one selector, no threads."""

    def __init__(self, port, n):
        self.socks = []
        for _ in range(n):
            s = socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT_S)
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.socks.append(s)
        self.sel = selectors.DefaultSelector()
        for i, s in enumerate(self.socks):
            self.sel.register(s, selectors.EVENT_READ, i)
        self.bufs = [b""] * n

    def send(self, i, line):
        self.socks[i].sendall(line)

    def poll(self, timeout):
        """Reply lines that arrived within `timeout`: (conn, dict, t_recv)."""
        out = []
        for key, _ in self.sel.select(max(timeout, 0.0)):
            t = time.perf_counter()
            i = key.data
            data = self.socks[i].recv(1 << 20)
            if not data:
                raise BenchError("server closed the connection")
            self.bufs[i] += data
            *lines, self.bufs[i] = self.bufs[i].split(b"\n")
            out.extend((i, json.loads(l), t) for l in lines if l.strip())
        return out

    def request(self, i, obj):
        self.send(i, (json.dumps(obj) + "\n").encode())
        deadline = time.perf_counter() + REPLY_TIMEOUT_S
        while time.perf_counter() < deadline:
            for _, reply, _ in self.poll(deadline - time.perf_counter()):
                return reply
        raise BenchError(f"no reply to {obj} within {REPLY_TIMEOUT_S} s")

    def close(self):
        self.sel.close()
        for s in self.socks:
            s.close()


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """One `hisres serve --listen` process with shipped defaults."""

    def __init__(self, hisres, work, extra):
        self.port = free_port()
        self.err = open(work / f"serve-{self.port}.log", "wb")
        t0, host0 = time.perf_counter(), host_stat()
        self.proc = spawn(
            [str(hisres), "serve", "--model", str(work / "model.ckpt"), "--data",
             str(work / "data"), "--listen", f"127.0.0.1:{self.port}", *extra],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=self.err)
        # Ready = the first successful reply, found by poll-connect.
        deadline = t0 + 60
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited during start-up (code {self.proc.returncode})")
            try:
                self.ctl = Client(self.port, 1)
                break
            except OSError:
                if time.perf_counter() > deadline:
                    raise BenchError("server never accepted a connection")
                time.sleep(0.002)
        reply = self.ctl.request(0, {"cmd": "stats"})
        # Set-up cost: the server's CPU seconds from spawn until ready.
        self.setup_cpu_s = proc_cpu_s(self.proc.pid)
        self.setup_wall_s = time.perf_counter() - t0
        self.setup_steal = steal_between(host0, host_stat())
        if not reply.get("ok"):
            raise BenchError(f"stats request failed: {reply}")

    def stats(self):
        return self.ctl.request(0, {"cmd": "stats"})["stats"]

    def cpu_s(self):
        """CPU seconds (user + system, all threads) the server has used."""
        return proc_cpu_s(self.proc.pid)

    def stop(self):
        """Shuts the server down; returns its peak RSS in MiB."""
        reply = self.ctl.request(0, {"cmd": "shutdown"})
        self.ctl.close()
        code, _, rss = reap(self.proc, 30)
        self.err.close()
        if not reply.get("shutdown") or code != 0:
            raise BenchError(f"server shutdown failed (code {code})")
        return rss


def launch(hisres, work, extra, n):
    """`n` launches, the last left running. Returns it, the set-up CPU
    seconds over the quieter half of the launches and the median set-up
    wall seconds."""
    cpu, wall, steal = [], [], []
    for i in range(n):
        srv = Server(hisres, work, extra)
        cpu.append(srv.setup_cpu_s)
        wall.append(srv.setup_wall_s)
        steal.append(srv.setup_steal)
        if i < n - 1:
            srv.stop()
    return srv, quiet_median(cpu, steal), statistics.median(wall)


# -------------------------------------------------------------- load phases

def host_stat():
    """(stolen, total) CPU ticks of the whole machine so far (/proc/stat)."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def steal_between(a, b):
    """Share of the machine's CPU time the hypervisor stole between two
    `host_stat()` marks: other tenants' load on a shared host, which
    stretches wall-clock figures and, less, CPU times."""
    return (b[0] - a[0]) / max(b[1] - a[1], 1)


def quiet_median(values, steals):
    """Median of the values measured in the half of the slices (rounded
    up) with the least host steal."""
    keep = sorted(range(len(values)), key=lambda k: (steals[k], k))[:(len(values) + 1) // 2]
    return statistics.median(values[k] for k in keep)


def open_loop(client, schedule, pid=None, windows=1):
    """Sends `schedule` [(due_s, conn, request dict)] on time regardless of
    replies, except that at most `MAX_INFLIGHT` requests are unanswered at
    once: the queue of the server then never overflows, and a request held
    back by the cap counts its wait as latency (latency runs from the due
    time). Returns per request [due, late, recv, reply] in schedule order
    (recv/reply stay None when no reply came; `late` is the generator's own
    lateness in seconds: send time minus the due time or, for a held
    request, minus the reply that freed its slot), the number of requests
    the cap held back and, with `pid`, the process's CPU seconds and the
    host's `host_stat()` at the bounds of `windows` equal time slices."""
    recs = [None] * len(schedule)
    by_id = {}
    t0 = time.perf_counter() + 0.02
    i = 0
    waiting = 0
    held, freed_at = 0, None
    last_due = schedule[-1][0] if schedule else 0.0
    width = (last_due + 1e-3) / windows
    marks = [(proc_cpu_s(pid), host_stat())] if pid else []
    while True:
        now = time.perf_counter()
        if pid and len(marks) <= windows and now >= t0 + width * len(marks):
            marks.append((proc_cpu_s(pid), host_stat()))
        if i < len(schedule) and now >= t0 + schedule[i][0] and waiting < MAX_INFLIGHT:
            # Everything due by now goes out in one write per connection.
            out = {}
            first = i
            while (i < len(schedule) and now >= t0 + schedule[i][0]
                   and waiting + i - first < MAX_INFLIGHT):
                _, conn, req = schedule[i]
                out.setdefault(conn, []).append(json.dumps(dict(req, id=str(i))) + "\n")
                by_id[str(i)] = i
                i += 1
            for conn, lines in out.items():
                client.send(conn, "".join(lines).encode())
            sent = time.perf_counter()
            for j in range(first, i):
                due = t0 + schedule[j][0]
                ready = due
                if freed_at is not None and due < freed_at:
                    ready, held = freed_at, held + 1
                recs[j] = [due, sent - ready, None, None]
            waiting += i - first
            freed_at = None
            now = sent
        if i == len(schedule) and not waiting and (not pid or len(marks) > windows):
            break
        if now > t0 + last_due + REPLY_TIMEOUT_S:
            break
        # While the cap is full, block on replies rather than spin.
        sendable = i < len(schedule) and waiting < MAX_INFLIGHT
        wait = (t0 + schedule[i][0] - now) if sendable else 0.01
        for _, reply, t in client.poll(min(wait, 0.01)):
            j = by_id.get(str(reply.get("id")))
            if j is not None and recs[j][2] is None:
                recs[j][2], recs[j][3] = t, reply
                if waiting == MAX_INFLIGHT and freed_at is None:
                    freed_at = t
                waiting -= 1
    if i < len(schedule):
        raise BenchError(f"open loop: {len(schedule) - i} requests never sent, "
                         f"the server stopped answering")
    return recs, held, marks


def window_of(due, schedule, windows):
    """The `open_loop` time slice a request due at `due` falls in."""
    return min(int(due / ((schedule[-1][0] + 1e-3) / windows)), windows - 1)


def closed_loop(client, requests, seconds, pid, burst):
    """Closed loop on one connection: send `burst` requests in one write,
    wait for all their replies, repeat, for `WINDOWS` back-to-back slices
    of `seconds`. A burst arrives within one coalescing window, so each is
    answered as one batch of `burst` queries whatever the timing. Returns
    (completed, failed, wall s, replies, [(completed, CPU s of `pid`,
    host steal share)] per slice)."""
    done, failed, wall, replies, slices, nxt = 0, 0, 0.0, [], [], 0
    for _ in range(WINDOWS):
        cpu0, host0, t0 = proc_cpu_s(pid), host_stat(), time.perf_counter()
        n = 0
        while n == 0 or time.perf_counter() < t0 + seconds / WINDOWS:
            batch = [dict(requests[(nxt + k) % len(requests)], id=str(nxt + k))
                     for k in range(burst)]
            nxt += burst
            client.send(0, "".join(json.dumps(r) + "\n" for r in batch).encode())
            waiting = burst
            while waiting:
                got = client.poll(REPLY_TIMEOUT_S)
                if not got:
                    raise BenchError("closed loop: no reply within the timeout")
                for _, reply, _ in got:
                    waiting -= 1
                    replies.append(reply)
                    failed += not reply.get("ok") or bool(reply.get("degraded"))
            n += burst
        wall += time.perf_counter() - t0
        slices.append((n, proc_cpu_s(pid) - cpu0, steal_between(host0, host_stat())))
        done += n
    return done, failed, wall, replies, slices


def pct(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    v = sorted(values)
    if not v:
        return float("nan")
    pos = (len(v) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def read_quads(path):
    out = []
    for line in path.read_text().splitlines():
        if line.strip():
            s, r, o, t = map(int, line.split())
            out.append((s, r, o, t))
    return out


def queries_of(quads, nr):
    """Raw and inverse forecast queries with their true objects."""
    out = []
    for s, r, o, _ in quads:
        out.append((s, r, o))
        out.append((o, r + nr, s))
    return out


def rank_stats(pairs):
    """(hits@10 %, MRR@10 %) of (gold, reply) pairs, raw."""
    hits = rr = 0.0
    for gold, reply in pairs:
        ents = [p["o"] for p in reply["predictions"]]
        if gold in ents[:10]:
            hits += 1
            rr += 1.0 / (ents.index(gold) + 1)
    n = max(len(pairs), 1)
    return 100.0 * hits / n, 100.0 * rr / n


def preds_of(reply):
    return [(p["o"], p["score"]) for p in reply["predictions"]]


# --------------------------------------------------------------- workloads

class Run:
    """State shared by one run's phases."""

    def __init__(self, args, hisres, tracer, work, toy):
        self.args = args
        self.hisres = hisres
        self.tracer = tracer
        self.work = work
        self.toy = toy
        self.rng = random.Random(args.seed)
        self.attempted = 0
        self.failed = 0
        self.e2e = {}
        self.layer = {}

    def cli(self, argv, timeout=120):
        """One `hisres` CLI step; returns (stdout, CPU s)."""
        self.attempted += 1
        code, out, err, cpu = run_cli([str(self.hisres), *argv], timeout)
        if code != 0:
            self.failed += 1
            raise BenchError(f"hisres {argv[0]} failed (code {code}): {err.strip()[-500:]}")
        return out, cpu

    def gen(self):
        argv = [str(self.tracer), "gen", "--workload", self.args.workload,
                "--seed", str(self.args.seed), "--out", str(self.work)]
        if self.toy:
            argv.append("--toy")
        code, out, err, _ = run_cli(argv, 120)
        if code != 0:
            raise BenchError(f"input generation failed: {err.strip()}")
        self.sizes = json.loads(out)
        self.nr = self.sizes["relations"]
        return self.sizes

    def prep_weights(self):
        self.cli(["train", "--data", str(self.work / "data"), "--out",
                  str(self.work / "model.ckpt"), "--epochs", str(PREP_EPOCHS), "--quiet"], 300)

    def trace(self, extra):
        argv = [str(self.tracer), "trace", "--workload", self.args.workload,
                "--dir", str(self.work), *extra]
        code, out, err, _ = run_cli(argv, 150)
        if code != 0:
            raise BenchError(f"traced replay failed: {err.strip()[-500:]}")
        return json.loads(out.strip().splitlines()[-1])

    def check_trace_replies(self, served):
        """The traced replay must answer every request exactly as served
        (requests without a served reply are already counted as failed)."""
        traced = [json.loads(l) for l in
                  (self.work / "trace_replies.txt").read_text().splitlines() if l.strip()]
        if len(traced) != len(served):
            raise BenchError(f"traced replay gave {len(traced)} replies, served {len(served)}")
        for k, (a, b) in enumerate(zip(served, traced)):
            if a is None or not a.get("ok"):
                continue
            if "predictions" in a or "predictions" in b:
                if a.get("predictions") != b.get("predictions"):
                    raise BenchError(f"traced reply {k} differs from the served reply: "
                                     f"{json.dumps(a)[:300]} vs {json.dumps(b)[:300]}")
            elif a.get("seq") != b.get("seq") or a.get("ingest") != b.get("ingest"):
                raise BenchError(f"traced ingest ack {k} differs from the served ack")


def late_p90(recs):
    return pct([r[1] * 1e3 for r in recs], 90)


def serve_static(run):
    w, args = run.work, run.args
    sizes = run.gen()
    run.prep_weights()
    future = queries_of(read_quads(w / "future.txt"), run.nr)
    run.rng.shuffle(future)
    # Open loop: seeded Poisson arrivals over the held-out queries.
    open_s, single_s, multi_s = (args.seconds * f for f in STATIC_SHARES)
    schedule, t = [], 0.0
    while True:
        t += run.rng.expovariate(STATIC_RATE)
        if t >= open_s:
            break
        s, r, _ = future[len(schedule) % len(future)]
        schedule.append((t, len(schedule) % NPROC, {"s": s, "r": r}))
    closed_reqs = [{"s": s, "r": r} for s, r, _ in future]

    srv, run.e2e["setup_s"], setup_wall = launch(run.hisres, w, [], SETUP_LAUNCHES)
    try:
        mark = host_stat()
        client = Client(srv.port, NPROC)
        recs, held, _ = open_loop(client, schedule)
        client.close()
        client = Client(srv.port, 1)
        # Closed loop of single queries: the CPU cost of one query alone.
        done1, failed1, _, replies1, slices1 = closed_loop(
            client, closed_reqs, single_s, srv.proc.pid, 1)
        # Closed loop of bursts: batched capacity per CPU-second.
        done, c_failed, elapsed, c_replies, slices = closed_loop(
            client, closed_reqs, multi_s, srv.proc.pid, BURST)
        steal = steal_between(mark, host_stat())
        # Traced runs add an untimed quality sweep: every held-out query
        # once, in bursts.
        sweep = []
        if args.trace:
            for k in range(0, len(future), BURST):
                chunk = [(0.0, 0, {"s": s, "r": r}) for s, r, _ in future[k:k + BURST]]
                sweep.extend(r[3] for r in open_loop(client, chunk)[0])
        client.close()
        stats = srv.stats()
    finally:
        rss = srv.stop() if srv.proc.poll() is None else 0.0

    lat, failed, by_pair = [], c_failed + failed1, {}
    for (_, _, req), (due, _, recv, reply) in zip(schedule, recs):
        if reply is None or not reply.get("ok") or reply.get("degraded"):
            failed += 1
            continue
        lat.append((recv - due) * 1e3)
        by_pair.setdefault((req["s"], req["r"]), []).append(preds_of(reply))
    sample_keys = sorted(by_pair)
    # Answer checks: one answer per pair within the run ...
    for reply in c_replies + replies1:
        if reply.get("ok") and not reply.get("degraded"):
            key = tuple(closed_reqs[int(reply["id"]) % len(closed_reqs)].values())
            by_pair.setdefault(key, []).append(preds_of(reply))
    for (s, r, _), reply in zip(future, sweep):
        if reply is None or not reply.get("ok") or reply.get("degraded"):
            failed += 1
        else:
            by_pair.setdefault((s, r), []).append(preds_of(reply))
    for key, answers in by_pair.items():
        if any(a != answers[0] for a in answers):
            raise BenchError(f"pair {key} got different answers within one run")
    # ... and a seeded sample equals `hisres predict` at the same frontier.
    for s, r in run.rng.sample(sample_keys, min(PREDICT_SAMPLES, len(sample_keys))):
        out, _ = run.cli(["predict", "--model", str(w / "model.ckpt"), "--data",
                                str(w / "data"), "--subject", str(s), "--relation", str(r),
                                "--topk", "10"])
        got = []
        for line in out.splitlines()[1:]:
            parts = line.split()
            if len(parts) >= 5 and parts[1] == "entity":
                got.append((int(parts[2]), parts[4]))
        want = [(o, "%.4f" % sc) for o, sc in by_pair[(s, r)][0]]
        if got != want:
            raise BenchError(f"served answer for ({s}, {r}) differs from `hisres predict`")

    run.attempted += len(schedule) + done1 + done + len(sweep)
    run.failed += failed
    run.e2e.update({
        "cpu_ms_per_op": quiet_median([1e3 * c / n for n, c, _ in slices1],
                                      [st for _, _, st in slices1]),
        "peak_rss_mb": rss,
    })
    capacity = quiet_median([n / c for n, c, _ in slices], [st for _, _, st in slices])
    sizes.update(open_loop_queries=len(schedule), open_loop_rate=STATIC_RATE, held_back=held,
                 single_queries=done1, burst_queries=done, burst=BURST, connections=NPROC,
                 host_steal=round(steal, 4))
    late = late_p90(recs)
    if late > LATE_LIMIT_MS:
        raise BenchError(f"invalid run: open-loop generator p90 lateness {late:.1f} ms")
    if args.trace:
        # The traced replay sees the open-loop stream in send order.
        (w / "stream.jsonl").write_text(
            "".join(json.dumps(req) + "\n" for _, _, req in schedule))
        m = run.trace([])
        run.check_trace_replies([r[3] for r in recs])
        hits, mrr = rank_stats([(o, reply) for (_, _, o), reply in zip(future, sweep)
                                if reply and reply.get("ok")])
        run.layer.update(m)
        run.layer.update({
            "serve.query_p50_ms": pct(lat, 50), "serve.query_p90_ms": pct(lat, 90),
            "serve.query_rps": done / elapsed, "serve.queries_per_cpu_s": capacity,
            "serve.setup_wall_s": setup_wall,
            "serve.frontend_ms": pct(lat, 50) - m["traced_request_ms"],
            "serve.rejected": stats["rejected"], "serve.degraded": stats["degraded"],
            "model.hits10": hits, "model.mrr": mrr,
            "gen.late_p90_ms": late, "gen.host_steal_frac": steal,
        })
    return sizes


def serve_live(run):
    w, args = run.work, run.args
    sizes = run.gen()
    run.prep_weights()
    frontier = sizes["history_snapshots"]
    snaps = {}
    for s, r, o, t in read_quads(w / "future.txt"):
        snaps.setdefault(t - frontier, []).append((s, r, o, t))
    prefix = sizes["prefix_snapshots"]

    def ingest(i):
        quads = [[s, r, o] for s, r, o, _ in snaps.get(i, [])]
        return {"cmd": "ingest", "seq": i + 1, "t": frontier + i, "quads": quads}

    # A WAL already holding `prefix` ingests; every launch recovers from it.
    wal = w / "wal_prefix"
    wal.mkdir()
    srv = Server(run.hisres, w, ["--wal", str(wal / "wal.log")])
    for i in range(prefix):
        reply = srv.ctl.request(0, ingest(i))
        if reply.get("ingest") != "applied":
            raise BenchError(f"WAL prefix ingest {i + 1} not applied: {reply}")
    srv.stop()
    shutil.copytree(wal, w / "wal_live")

    # Steps: ingest snapshot t, then (a seeded sample of) the forecast
    # queries for t + 1, all due together on the one connection.
    n_steps = min(sizes["future_snapshots"] - prefix - 1,
                  int(args.seconds * LIVE_OPEN_SHARE / LIVE_STEP_S))
    schedule, golds, steps = [], [], []
    for k in range(n_steps):
        i = prefix + k
        schedule.append((k * LIVE_STEP_S, 0, ingest(i)))
        golds.append(None)
        steps.append(k)
        forecasts = queries_of(snaps.get(i + 1, []), run.nr)
        if len(forecasts) > LIVE_QUERIES_PER_STEP:
            forecasts = run.rng.sample(forecasts, LIVE_QUERIES_PER_STEP)
        for s, r, o in forecasts:
            schedule.append((k * LIVE_STEP_S, 0, {"s": s, "r": r}))
            golds.append(o)
            steps.append(k)
    # Capacity queries: every (s, r) of the held-out tail, in seeded order.
    tail = queries_of([q for k in sorted(snaps) if k >= prefix for q in snaps[k]], run.nr)
    run.rng.shuffle(tail)
    closed_reqs = [{"s": s, "r": r} for s, r, _ in tail]

    srv, run.e2e["setup_s"], setup_wall = launch(
        run.hisres, w, ["--wal", str(w / "wal_live" / "wal.log")], SETUP_LAUNCHES)
    try:
        mark = host_stat()
        client = Client(srv.port, 1)
        recs, held, marks = open_loop(client, schedule, srv.proc.pid, WINDOWS)
        client.close()
        # Batched query capacity at the advanced frontier.
        client = Client(srv.port, 1)
        done, c_failed, elapsed, _, slices = closed_loop(
            client, closed_reqs, args.seconds * (1 - LIVE_OPEN_SHARE), srv.proc.pid, BURST)
        client.close()
        steal = steal_between(mark, host_stat())
        stats = srv.stats()
    finally:
        rss = srv.stop() if srv.proc.poll() is None else 0.0

    lat, ing_lat, fresh, pairs, failed = [], [], [], [], c_failed
    expect_seq, first = prefix + 1, False
    for (_, _, req), (due, _, recv, reply), gold, step in zip(schedule, recs, golds, steps):
        if reply is None or not reply.get("ok") or reply.get("degraded"):
            if gold is None:
                raise BenchError(f"ingest seq {req['seq']} not acknowledged: {reply}")
            failed += 1
            continue
        ms = (recv - due) * 1e3
        if gold is None:
            if reply.get("ingest") != "applied" or reply.get("seq") != expect_seq:
                raise BenchError(f"ingest ack out of order or not applied: {reply}")
            expect_seq += 1
            ing_lat.append(ms)
            first = True
        else:
            if first:
                fresh.append(ms)
                first = False
            lat.append(ms)
            pairs.append((gold, reply))
    # Replies on the one connection arrive in send order.
    recv_times = [r[2] for r in recs if r[2] is not None]
    if recv_times != sorted(recv_times):
        raise BenchError("replies on the live connection arrived out of order")

    # CPU per step in each time slice of the open loop (steps due in it).
    per_window = [0] * WINDOWS
    for k in range(n_steps):
        per_window[window_of(k * LIVE_STEP_S, schedule, WINDOWS)] += 1
    windows = [(1e3 * (b[0] - a[0]) / n, steal_between(a[1], b[1]))
               for a, b, n in zip(marks, marks[1:], per_window) if n]
    run.attempted += len(schedule) + done
    run.failed += failed
    run.e2e.update({
        "cpu_ms_per_op": quiet_median([c for c, _ in windows], [st for _, st in windows]),
        "peak_rss_mb": rss,
    })
    capacity = quiet_median([n / c for n, c, _ in slices], [st for _, _, st in slices])
    sizes.update(live_ingests=n_steps, live_queries=len(pairs), step_interval_s=LIVE_STEP_S,
                 held_back=held,
                 burst_queries=done, burst=BURST, host_steal=round(steal, 4))
    late = late_p90(recs)
    if late > LATE_LIMIT_MS:
        raise BenchError(f"invalid run: open-loop generator p90 lateness {late:.1f} ms")
    if args.trace:
        (w / "stream.jsonl").write_text(
            "".join(json.dumps(req) + "\n" for _, _, req in schedule))
        m = run.trace(["--prefix", str(prefix)])
        run.check_trace_replies([r[3] for r in recs])
        hits, mrr = rank_stats(pairs)
        run.layer.update(m)
        run.layer.update({
            "serve.query_p50_ms": pct(lat, 50), "serve.query_p90_ms": pct(lat, 90),
            "serve.query_rps": done / elapsed, "serve.queries_per_cpu_s": capacity,
            "serve.setup_wall_s": setup_wall,
            "serve.frontend_ms": pct(lat, 50) - m["traced_request_ms"],
            "serve.rejected": stats["rejected"], "serve.degraded": stats["degraded"],
            "serve.ingest_p50_ms": pct(ing_lat, 50), "serve.ingest_p90_ms": pct(ing_lat, 90),
            "serve.fresh_p50_ms": pct(fresh, 50), "model.hits10": hits, "model.mrr": mrr,
            "gen.late_p90_ms": late, "gen.host_steal_frac": steal,
        })
    return sizes


def read_progress(proc, deadline):
    """Reads `hisres train` stderr as it comes; returns [(t, CPU s,
    host_stat, line)], stamped with wall time, the process's CPU time and
    the host's steal counters on arrival."""
    lines, buf = [], b""
    fd = proc.stderr.fileno()
    sel = selectors.DefaultSelector()
    sel.register(fd, selectors.EVENT_READ)
    try:
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise BenchError("hisres train exceeded its time limit")
            if not sel.select(min(left, 1.0)):
                continue
            t, host = time.perf_counter(), host_stat()
            try:
                cpu = proc_cpu_s(proc.pid)
            except OSError:
                cpu = None
            data = os.read(fd, 65536)
            if not data:
                break
            buf += data
            *done, buf = buf.split(b"\n")
            lines.extend((t, cpu, host, l.decode()) for l in done)
    finally:
        sel.close()
    return lines


def train(run):
    w = run.work
    sizes = run.gen()
    data = str(w / "data")
    epochs = 2 if run.toy else TRAIN_EPOCHS
    setups = [run.cli(["train", "--data", data, "--out", str(w / "setup.ckpt"),
                       "--epochs", "0"])[1] for _ in range(SETUP_LAUNCHES)]
    run.e2e["setup_s"] = statistics.median(setups)  # CPU seconds, as for serving

    run.attempted += 1
    t0 = time.perf_counter()
    steal0 = host_stat()
    proc = spawn([str(run.hisres), "train", "--data", data, "--out", str(w / "model.ckpt"),
                  "--epochs", str(epochs)],
                 stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    lines = read_progress(proc, t0 + 150)
    code, _, rss = reap(proc, 30)
    (s0, h0), (s1, h1) = steal0, host_stat()
    proc.stderr.close()
    if code != 0:
        run.failed += 1
        raise BenchError(f"hisres train failed (code {code})")
    marks = [m for m in lines if m[3].startswith(("training on", "epoch "))]
    progress = [line for *_, line in marks[1:]]
    if not progress or not marks[0][3].startswith("training on") or any(
            m[1] is None for m in marks):
        raise BenchError("hisres train printed no progress lines")
    epoch_s = [b[0] - a[0] for a, b in zip(marks, marks[1:])]
    epoch_cpu = [b[1] - a[1] for a, b in zip(marks, marks[1:])]
    epoch_steal = [steal_between(a[2], b[2]) for a, b in zip(marks, marks[1:])]

    out, _ = run.cli(["eval", "--model", str(w / "model.ckpt"), "--data", data])
    fields = out.split()
    try:
        mrr = float(fields[fields.index("MRR") + 1])
        hits10 = float(fields[fields.index("H@10") + 1])
    except (ValueError, IndexError):
        raise BenchError(f"cannot parse `hisres eval` output: {out!r}")
    run.e2e.update({
        "cpu_ms_per_op": 1e3 * quiet_median(epoch_cpu, epoch_steal),
        "peak_rss_mb": rss,
    })
    sizes.update(epochs=epochs, epochs_run=len(epoch_s),
                 host_steal=round((s1 - s0) / max(h1 - h0, 1), 4))
    if run.args.trace:
        m = run.trace(["--epochs", str(epochs)])
        traced = (w / "trace_losses.txt").read_text().splitlines()
        printed = progress
        if traced != printed:
            raise BenchError(f"traced training losses {traced} differ from `hisres train` {printed}")
        run.layer.update(m)
        run.layer.update({
            "train.epoch_s": statistics.median(epoch_s), "model.hits10": hits10,
            "model.mrr": mrr, "gen.host_steal_frac": (s1 - s0) / max(h1 - h0, 1),
        })
    return sizes


RUNNERS = {"serve_static": serve_static, "serve_live": serve_live, "train": train}


# --------------------------------------------------------------------- main

def measure(args, toy=False):
    """One run; returns (provenance, result dict)."""
    hisres, tracer = build()
    if not toy:
        signal.alarm(int(RUN_DEADLINE_S))
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tempfile.tempdir = str(scratch)  # every temp file stays in the checkout
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-"))
    try:
        run = Run(args, hisres, tracer, work, toy)
        sizes = RUNNERS[args.workload](run)
        names = PER_LAYER if args.trace else E2E
        source = run.layer if args.trace else dict(
            run.e2e, ok_frac=1.0 - run.failed / max(run.attempted, 1))
        metrics = {}
        for name, unit in names.items():
            # A per-layer metric of a layer this workload does not run is 0.
            if name not in source and not args.trace:
                raise BenchError(f"end-to-end metric {name} was not measured")
            value = float(source.get(name, 0.0))
            if not math.isfinite(value):
                raise BenchError(f"metric {name} is not finite")
            metrics[name] = {"value": value, "unit": unit}
        result = {"correct": True, "attempted": run.attempted, "failed": run.failed,
                  "metrics": metrics}
        return provenance(args.workload, args.seed, args.seconds, sizes), result
    finally:
        kill_children()
        if (work / "spans.jsonl").is_file():
            # Keep the traced run's spans for inspection; the rest goes.
            shutil.copy(work / "spans.jsonl", scratch / f"spans-{args.workload}-{args.seed}.jsonl")
        shutil.rmtree(work, ignore_errors=True)


def self_check():
    """All workloads at toy size, both modes: every metric of BENCHMARK.json
    present, finite, with its unit, and non-zero exactly where its layer
    runs."""
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=7, seconds=2, trace=trace)
            t0 = time.perf_counter()
            _, result = measure(args, toy=True)
            for name, m in result["metrics"].items():
                if trace == 0 and m["value"] == 0:
                    raise BenchError(f"{workload}: end-to-end metric {name} reads 0")
                if trace == 1 and name not in SIGNED and name not in ("serve.rejected",
                                                                      "serve.degraded"):
                    if (m["value"] > 0) != (name in EXERCISED[workload]):
                        raise BenchError(f"{workload}: {name} = {m['value']} "
                                         f"({'outside' if m['value'] else 'missing in'} its layer)")
            print(f"self-check {workload} trace={trace}: ok "
                  f"({len(result['metrics'])} metrics, {time.perf_counter() - t0:.1f} s)",
                  file=sys.stderr)
    print("self-check: ok", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    def on_signal(signum, _frame):
        raise BenchError(f"stopped by signal {signum}")

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP, signal.SIGALRM):
        signal.signal(sig, on_signal)
    try:
        if args.self_check:
            signal.alarm(900)
            self_check()
            return 0
        if not args.workload:
            ap.error("--workload is required")
        prov, result = measure(args)
        print(json.dumps({"provenance": prov}))
        print(json.dumps(result))
        return 0
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        kill_children()


if __name__ == "__main__":
    sys.exit(main())
