#!/usr/bin/env python3
"""End-to-end benchmark of salign: four seeded workloads, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and
builds `perfbench/` (the salign library and CLI plus the in-process probe)
into $CARGO_TARGET_DIR (default `.bench_build`). Inputs come from
`salign generate` with the given seed. With --trace 0 the run measures the
end-to-end metrics named in BENCHMARK.json; with --trace 1 it runs the
traced per-layer replay instead. Human-readable lines come first; the last
line of stdout is one JSON object. The exit code is non-zero when any output
check fails. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")

# Generator parameters per workload, at full and at minimal size (the
# minimal size is what perfbench/test_run.py exercises).
SIZES = {
    "full": {
        "family-seq": {"kind": "rose", "n": 1600, "length": 300},
        "genome-sad": {"kind": "genome", "n": 2000, "length": 300},
        "refs-batch": {"prefab": 48, "balibase": 40, "sabmark": 24},
        "serve-open": {"prefab": 24, "rate": 10.0},
    },
    "min": {
        "family-seq": {"kind": "rose", "n": 40, "length": 60},
        "genome-sad": {"kind": "genome", "n": 64, "length": 60},
        "refs-batch": {"prefab": 2, "balibase": 5, "sabmark": 2},
        "serve-open": {"prefab": 2, "rate": 8.0},
    },
}
# The CLI shape of the two family workloads (--procs, --threads).
CLI_SHAPE = {"family-seq": (1, 4), "genome-sad": (4, 1)}
SETUP_REPS = 15
SETUP_PER_RUN = 10
SERVE_SETUP_REPS = 9
SERVE_POLL_S = 0.005
SERVE_DRAIN_S = 60.0
TERMINAL = ("done", "failed", "evicted", "cancelled")

SERVE_LAYER = [
    "serve.submit_ack_ms.p50", "serve.submit_ack_ms.p95", "serve.backlog_max",
    "serve.disk_files_per_job", "serve.disk_bytes_per_job",
    "serve.align_share", "serve.shed", "serve.failed",
    "serve.dropped_connections", "serve.gen_late_ms",
]


class CheckFailed(Exception):
    pass


# ---- build -----------------------------------------------------------------

def build_dir(build_root):
    """This checkout's build tree under build_root. It is named after the
    checkout's perfbench/ path, so checkouts that share $CARGO_TARGET_DIR
    never build or time each other's sources."""
    key = hashlib.sha256(os.path.realpath(BENCH_DIR).encode()).hexdigest()
    return os.path.join(build_root, "perfbench-" + key[:16])


def build(bdir):
    os.makedirs(bdir, exist_ok=True)
    logpath = os.path.join(bdir, "build.log")
    # Configure on every run: cheap once cached, and it fails at once when
    # the salign sources are missing.
    steps = [["cmake", "-S", BENCH_DIR, "-B", bdir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "--target", "salign_cli",
              "perfbench_probe", "-j", str(os.cpu_count() or 1)]]
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(logpath, "w") as lf:
        for cmd in steps:
            if subprocess.run(cmd, stdout=lf, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env).returncode != 0:
                lf.flush()
                with open(logpath) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise SystemExit("perfbench: build failed (see %s)" % logpath)
    return (os.path.join(bdir, "salign", "salign"),
            os.path.join(bdir, "perfbench_probe"))


def host_context(bdir):
    """nproc, build type and compiler of the benchmark build."""
    cache = {}
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            key, _, value = line.strip().partition("=")
            cache[key.split(":")[0]] = value
    cxx = cache.get("CMAKE_CXX_COMPILER", "?")
    version = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True).stdout.split("\n")[0]
    return "nproc=%d build=%s compiler=%s" % (
        os.cpu_count() or 0, cache.get("CMAKE_BUILD_TYPE", "?"), version)


# ---- processes -------------------------------------------------------------

def cpu_s(ru):
    return ru.ru_utime + ru.ru_stime


def run_child(cmd):
    """Runs cmd (stderr passes through); returns (wall s, rusage, exit code,
    stdout). The rusage is the child's own: peak RSS and CPU."""
    t = time.perf_counter()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    out = p.stdout.read()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t
    p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, ru, p.returncode, out.decode()


def setup_walls(cmd, reps, what):
    walls = []
    for _ in range(reps):
        wall, _, rc, _ = run_child(cmd)
        if rc != 0:
            raise CheckFailed("%s exited %d" % (what, rc))
        walls.append(wall)
    return walls


def probe_json(probe, *args):
    """Runs a probe command; returns its JSON result and its rusage."""
    _, ru, rc, out = run_child([probe] + list(args))
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if not lines:
        raise CheckFailed("probe %s printed no result (exit %d)" % (args[0], rc))
    res = json.loads(lines[-1])
    if rc != 0 or res.get("errors"):
        raise CheckFailed("probe %s: %s" % (args[0], res.get("errors")))
    return res, ru


# ---- inputs and checks -----------------------------------------------------

def read_fasta(path):
    recs, name, buf = [], None, []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith(">"):
                if name is not None:
                    recs.append((name, "".join(buf)))
                name, buf = line[1:].split()[0], []
            elif line:
                buf.append(line)
    if name is not None:
        recs.append((name, "".join(buf)))
    return recs


def check_degap(msa_path, inputs):
    """Every MSA row degaps to its input, in input order."""
    rows = read_fasta(msa_path)
    if len(rows) != len(inputs):
        raise CheckFailed("%s: %d rows for %d inputs"
                          % (msa_path, len(rows), len(inputs)))
    width = len(rows[0][1])
    for (rid, text), (iid, seq) in zip(rows, inputs):
        if rid != iid or len(text) != width or \
                text.replace("-", "").replace(".", "") != seq:
            raise CheckFailed("%s: row %s does not degap to input %s"
                              % (msa_path, rid, iid))


def digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def corrupt(path):
    """The benchmark's self-test: swap one residue of an output file."""
    with open(path, "r+b") as f:
        data = bytearray(f.read())
        i = data.index(b"\n") + 1
        while data[i:i + 1] in (b"-", b"\n"):
            i += 1
        data[i] = ord("A") if data[i] != ord("A") else ord("C")
        f.seek(0)
        f.write(data)


def generate(salign, kind, n, seed, out, length=None):
    cmd = [salign, "generate", "--kind", kind, "--n", str(n), "--seed",
           str(seed), "--out", out]
    if length:
        cmd += ["--length", str(length)]
    if subprocess.run(cmd, stdout=subprocess.DEVNULL, cwd=ROOT).returncode:
        raise SystemExit("perfbench: salign generate failed")


def make_cases(salign, sizes, seed, work):
    """Reference suites as `<suite> <fasta> <reference>` lines."""
    lines = []
    for suite in ("prefab", "balibase", "sabmark"):
        n = sizes.get(suite, 0)
        if not n:
            continue
        prefix = os.path.join(work, "cases", suite)
        os.makedirs(os.path.dirname(prefix), exist_ok=True)
        generate(salign, suite, n, seed, prefix)
        i = 0
        while os.path.exists("%s%d.fasta" % (prefix, i)):
            lines.append("%s %s%d.fasta %s%d.ref.afa"
                         % (suite, prefix, i, prefix, i))
            i += 1
    path = os.path.join(work, "cases.tsv")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path, [l.split()[1] for l in lines]


def two_seq_input(work):
    path = os.path.join(work, "two.fasta")
    with open(path, "w") as f:
        f.write(">a\nMKVLAAGIVGLLLAQAHA\n>b\nMKVLSAGIVGLLAQAHA\n")
    return path


def quantile(values, q):
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


# ---- CLI workloads (family-seq, genome-sad) --------------------------------

def cli_workload(ctx):
    salign, probe, work, args = ctx["salign"], ctx["probe"], ctx["work"], ctx["args"]
    size = SIZES[args.size][args.workload]
    procs, threads = CLI_SHAPE[args.workload]
    fasta = os.path.join(work, "input.fasta")
    generate(salign, size["kind"], size["n"], args.seed, fasta, size["length"])
    inputs = read_fasta(fasta)
    align = [salign, "align", "--procs", str(procs), "--threads", str(threads)]

    setup_cmd = align + ["--in", two_seq_input(work), "--out",
                         os.path.join(work, "two.afa")]
    setup, walls, cpus, rss, digests = [], [], [], [], set()
    attempted = failed = 0
    out = os.path.join(work, "out.afa")
    t0 = time.perf_counter()
    while attempted < 3 or time.perf_counter() - t0 < args.seconds:
        # Set-ups interleave with the measured runs so that their median
        # samples the whole run, not one moment of it.
        setup += setup_walls(setup_cmd, SETUP_PER_RUN, "2-sequence align")
        attempted += 1
        wall, ru, rc, _ = run_child(align + ["--in", fasta, "--out", out])
        if rc != 0:
            failed += 1
            continue
        walls.append(wall)
        cpus.append(cpu_s(ru))
        rss.append(ru.ru_maxrss / 1024.0)
        if args.corrupt_output and attempted == 1:
            corrupt(out)
        try:
            check_degap(out, inputs)
        except CheckFailed as e:
            failed += 1
            ctx["errors"].append(str(e))
        digests.add(digest(out))
    if len(digests) > 1:
        ctx["errors"].append("runs produced %d different MSAs" % len(digests))
    if not walls:
        raise CheckFailed("every align run failed")
    sp = probe_json(probe, "sp", "--msa", out)[0]["sp_score"]

    n = len(walls)
    ctx["human"] += [
        ("align_wall_s", statistics.median(walls), "s",
         "median of %d runs, min %.4f, max %.4f" % (n, min(walls), max(walls))),
        ("align_cpu_s", statistics.median(cpus), "s",
         "user+sys of the align process, median of %d" % n),
        ("peak_rss_mb", statistics.median(rss), "MB", "median of %d" % n),
        ("setup_s", statistics.median(setup), "s",
         "2-sequence align, median of %d" % len(setup)),
        ("sp_score", sp, "score", "as `salign align --sp`"),
        ("failed_frac", failed / attempted, "ratio",
         "%d of %d" % (failed, attempted)),
    ]
    return attempted, failed, {
        "setup_s": statistics.median(setup),
        "align_wall_s": statistics.median(walls),
        "align_cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
    }


def cli_trace(ctx):
    salign, probe, work, args = ctx["salign"], ctx["probe"], ctx["work"], ctx["args"]
    size = SIZES[args.size][args.workload]
    procs, threads = CLI_SHAPE[args.workload]
    fasta = os.path.join(work, "input.fasta")
    generate(salign, size["kind"], size["n"], args.seed, fasta, size["length"])
    cmd = ["replay", "--in", fasta, "--procs", str(procs), "--threads",
           str(threads), "--chrome", ctx["chrome"], "--lib-out",
           os.path.join(work, "library.afa")]
    if procs == 1:
        # The phase-by-phase replay must reproduce the CLI byte for byte.
        replay_out = os.path.join(work, "replay.afa")
        layers, _ = probe_json(probe, *cmd, "--out", replay_out, "--t1")
        cli_out = os.path.join(work, "cli.afa")
        _, _, rc, _ = run_child([salign, "align", "--procs", "1", "--threads",
                                 str(threads), "--in", fasta, "--out",
                                 cli_out])
        if rc != 0:
            raise CheckFailed("align exited %d" % rc)
        if args.corrupt_output:
            corrupt(replay_out)
        if digest(cli_out) != digest(replay_out):
            ctx["errors"].append("family replay differs from the CLI output")
        check_degap(cli_out, read_fasta(fasta))
    else:
        if args.corrupt_output:
            cmd.append("--corrupt")
        layers, _ = probe_json(probe, *cmd)
    # The serve layer on this workload's input: one job through a fresh
    # daemon, byte-compared with the in-process library result.
    layers.update(serve_one_job(ctx, fasta, os.path.join(work, "library.afa"),
                                procs, threads, layers["library_wall.s"]))
    return 1, 0, layers


# ---- refs-batch ------------------------------------------------------------

def refs_workload(ctx):
    salign, probe, work, args = ctx["salign"], ctx["probe"], ctx["work"], ctx["args"]
    cases, _ = make_cases(salign, SIZES[args.size]["refs-batch"], args.seed, work)
    setup = setup_walls([probe, "setup", "--in", two_seq_input(work)],
                        SETUP_REPS, "library set-up call")
    cmd = ["refs", "--list", cases, "--seconds", str(args.seconds)]
    if args.corrupt_output:
        cmd.append("--corrupt")
    r, ru = probe_json(probe, *cmd)
    rss = ru.ru_maxrss / 1024.0
    cpu_per_case = cpu_s(ru) / max(1, int(r["samples"]))
    attempted, failed = int(r["attempted"]), int(r["failed"])
    ctx["human"] += [
        ("cases_per_s", r["cases_per_s"], "1/s",
         "%d cases, closed loop, %d passes" % (int(r["cases"]),
                                              int(r["passes"]))),
        ("case_p50_ms", r["case_p50_ms"], "ms",
         "pooled, n=%d" % int(r["samples"])),
        ("case_p95_ms", r["case_p95_ms"], "ms",
         "pooled, n=%d" % int(r["samples"])),
        ("best_case_p50_ms", r["best_p50_ms"], "ms",
         "median over cases of each case's best pass"),
        ("q_mean", r["q_mean"], "ratio",
         "mean over cases, BAliBASE on core columns"),
        ("tc_mean", r["tc_mean"], "ratio",
         "mean over cases, BAliBASE on core columns"),
        ("sp_score", r["sp_score"], "score", "mean over cases"),
        ("align_cpu_s", cpu_per_case, "s", "probe CPU per case"),
        ("peak_rss_mb", rss, "MB", "probe process"),
        ("setup_s", statistics.median(setup), "s",
         "first library call on 2 sequences, median of %d" % len(setup)),
        ("failed_frac", failed / attempted, "ratio",
         "%d of %d" % (failed, attempted)),
    ]
    return attempted, failed, {
        "setup_s": statistics.median(setup),
        "align_wall_s": r["best_p50_ms"] / 1e3,
        "align_cpu_s": cpu_per_case,
        "peak_rss_mb": rss,
    }


def refs_trace(ctx):
    salign, probe, work, args = ctx["salign"], ctx["probe"], ctx["work"], ctx["args"]
    cases, _ = make_cases(salign, SIZES[args.size]["refs-batch"], args.seed, work)
    layers, _ = probe_json(probe, "replay", "--list", cases, "--procs", "4",
                           "--threads", "1", "--chrome", ctx["chrome"])
    return 1, 0, layers


# ---- serve-open ------------------------------------------------------------

def rpc(sock_path, req, timeout=10.0):
    """One request per connection, as the reference clients do."""
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(timeout)
    try:
        s.connect(sock_path)
        s.sendall((json.dumps(dict(req, v=1)) + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            buf += chunk
        return json.loads(buf)
    finally:
        s.close()


class Daemon:
    """A `salign serve` child with its own journal; stopped on exit."""

    def __init__(self, salign, work, tag):
        self.dir = os.path.join(work, tag)
        os.makedirs(self.dir)
        # Relative to the checkout root: Unix socket paths are short.
        self.sock = os.path.relpath(os.path.join(self.dir, "d.sock"), ROOT)
        self.journal = os.path.join(self.dir, "journal")
        self.log = open(os.path.join(self.dir, "daemon.log"), "wb")
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [salign, "serve", "--socket", self.sock, "--journal-dir",
             self.journal], stdout=self.log, stderr=subprocess.STDOUT,
            cwd=ROOT)
        self.rss_mb = None
        self.cpu_s = None

    def wait_ready(self, timeout=30.0):
        while time.perf_counter() - self.t_spawn < timeout:
            try:
                if rpc(self.sock, {"op": "ping"}, 1.0).get("ok"):
                    return time.perf_counter() - self.t_spawn
            except (OSError, ValueError):
                pass
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise CheckFailed("daemon did not answer ping")

    def stop(self):
        if self.proc.returncode is None:
            try:
                rpc(self.sock, {"op": "shutdown"}, 2.0)
            except (OSError, ValueError):
                self.proc.kill()
            deadline = time.time() + 30
            while True:
                pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    self.rss_mb = ru.ru_maxrss / 1024.0
                    self.cpu_s = cpu_s(ru)
                    break
                if time.time() > deadline:
                    self.proc.kill()
                    deadline = time.time() + 30
                time.sleep(0.01)
        self.log.close()


def disk_usage(path):
    files = size = 0
    for d, _, names in os.walk(path):
        for n in names:
            files += 1
            size += os.path.getsize(os.path.join(d, n))
    return files, size


def serve_run(ctx):
    """The open loop: seeded fixed-rate submits from one client."""
    salign, probe, work, args = ctx["salign"], ctx["probe"], ctx["work"], ctx["args"]
    size = SIZES[args.size]["serve-open"]
    cases, fastas = make_cases(salign, {"prefab": size["prefab"]}, args.seed,
                               work)
    expect_dir = os.path.join(work, "expect")
    os.makedirs(expect_dir)
    expect, _ = probe_json(probe, "expect", "--list", cases, "--outdir",
                           expect_dir)

    setup = []
    for i in range(SERVE_SETUP_REPS):
        d = Daemon(salign, work, "setup%d" % i)
        try:
            setup.append(d.wait_ready())
        finally:
            d.stop()

    rate = size["rate"]
    njobs = max(len(fastas), int(args.seconds * rate))
    order = [i % len(fastas) for i in range(njobs)]
    random.Random(args.seed).shuffle(order)
    out_dir = os.path.join(work, "out")
    os.makedirs(out_dir)

    d = Daemon(salign, work, "daemon")
    acks, late, done, lat, pending = [], [], {}, [], []
    backlog = shed = 0
    last_done_ms = 0
    try:
        d.wait_ready()
        t0 = time.time() + 0.05
        nxt = 0
        next_poll = 0.0
        while nxt < njobs or pending:
            now = time.time()
            if now > t0 + njobs / rate + SERVE_DRAIN_S:
                break
            if nxt < njobs and now >= t0 + nxt / rate:
                due = t0 + nxt / rate
                late.append((now - due) * 1e3)
                out = os.path.join(out_dir, "%d.afa" % nxt)
                req = {"op": "submit", "in": fastas[order[nxt]], "out": out,
                       "procs": 4, "threads": 1}
                try:
                    r = rpc(d.sock, req)
                except (OSError, ValueError):
                    r = {"ok": False}
                acks.append((time.time() - now) * 1e3)
                if r.get("ok"):
                    backlog = max(backlog, int(r.get("queue_depth", 0)))
                    pending.append((r["id"], due, nxt))
                else:
                    shed += 1
                nxt += 1
                continue
            if pending and now >= next_poll:
                # Oldest first; a terminal answer moves straight on.
                jid, due, idx = pending[0]
                try:
                    job = rpc(d.sock, {"op": "status", "id": jid}).get("job", {})
                except (OSError, ValueError):
                    job = {}
                if job.get("state") in TERMINAL:
                    pending.pop(0)
                    done[idx] = job["state"]
                    if job["state"] == "done":
                        lat.append(job["updated_ms"] - due * 1e3)
                        last_done_ms = max(last_done_ms, job["updated_ms"])
                    continue
                next_poll = now + SERVE_POLL_S
            wake = t0 + nxt / rate if nxt < njobs else now + 0.05
            if pending:
                wake = min(wake, next_poll)
            time.sleep(max(0.0, min(wake - time.time(), 0.05)))
        counters = rpc(d.sock, {"op": "ping"}).get("counters", {})
    finally:
        d.stop()

    ok_jobs = [i for i, s in done.items() if s == "done"]
    for n, i in enumerate(sorted(ok_jobs)):
        out = os.path.join(out_dir, "%d.afa" % i)
        if args.corrupt_output and n == 0:
            corrupt(out)
        want = os.path.join(expect_dir, "%d.afa" % order[i])
        if digest(out) != digest(want):
            ctx["errors"].append("job %d: served MSA differs from the "
                                 "in-process result" % i)
    failed = njobs - len(ok_jobs)
    span_s = max(1e-9, last_done_ms / 1e3 - t0)
    return {
        "njobs": njobs, "failed": failed, "lat": lat, "acks": acks,
        "late": late, "backlog": backlog, "shed": shed, "setup": setup,
        "rss": d.rss_mb, "cpu_s": d.cpu_s, "jobs_per_s": len(ok_jobs) / span_s,
        "journal": d.journal, "counters": counters,
        "expect": expect, "cases": cases,
    }


def serve_workload(ctx):
    r = serve_run(ctx)
    if not r["lat"]:
        raise CheckFailed("no job completed")
    n = len(r["lat"])
    ctx["human"] += [
        ("job_p50_ms", statistics.median(r["lat"]), "ms",
         "from due time to terminal updated_ms, n=%d" % n),
        ("job_p95_ms", quantile(r["lat"], 0.95), "ms", "n=%d" % n),
        ("jobs_per_s", r["jobs_per_s"], "1/s",
         "offered %.1f/s open loop" % SIZES[ctx["args"].size]["serve-open"]["rate"]),
        ("align_cpu_s", r["cpu_s"] / r["njobs"], "s", "daemon CPU per job"),
        ("peak_rss_mb", r["rss"], "MB", "daemon"),
        ("setup_s", statistics.median(r["setup"]), "s",
         "spawn to first ping, median of %d" % len(r["setup"])),
        ("failed_frac", r["failed"] / r["njobs"], "ratio",
         "%d of %d (shed %d)" % (r["failed"], r["njobs"], r["shed"])),
    ]
    return r["njobs"], r["failed"], {
        "setup_s": statistics.median(r["setup"]),
        "align_wall_s": statistics.median(r["lat"]) / 1e3,
        "align_cpu_s": r["cpu_s"] / r["njobs"],
        "peak_rss_mb": r["rss"],
    }


def serve_layer(acks, backlog, njobs, journal, align_ms, job_p50_ms,
                counters, late):
    files, nbytes = disk_usage(journal)
    return {
        "serve.submit_ack_ms.p50": statistics.median(acks),
        "serve.submit_ack_ms.p95": quantile(acks, 0.95),
        "serve.backlog_max": backlog,
        "serve.disk_files_per_job": files / njobs,
        "serve.disk_bytes_per_job": nbytes / njobs,
        "serve.align_share": align_ms / job_p50_ms if job_p50_ms else 0.0,
        "serve.shed": counters.get("shed", 0),
        "serve.failed": counters.get("failed", 0) + counters.get("evicted", 0),
        "serve.dropped_connections": counters.get("dropped_connections", 0),
        "serve.gen_late_ms": max(late),
    }


def serve_one_job(ctx, fasta, want, procs, threads, library_s):
    d = Daemon(ctx["salign"], ctx["work"], "daemon")
    out = os.path.join(ctx["work"], "served.afa")
    try:
        d.wait_ready()
        # The job is due once the daemon answers; the client is late by
        # however long it takes to get the submit out.
        due, due_pc = time.time(), time.perf_counter()
        req = {"op": "submit", "in": fasta, "out": out, "procs": procs,
               "threads": threads}
        sent = time.perf_counter()
        late_ms = (sent - due_pc) * 1e3
        r = rpc(d.sock, req)
        ack_ms = (time.perf_counter() - sent) * 1e3
        if not r.get("ok"):
            raise CheckFailed("daemon refused the job: %s" % r.get("error"))
        while True:
            job = rpc(d.sock, {"op": "status", "id": r["id"]})["job"]
            if job["state"] in TERMINAL:
                break
            time.sleep(SERVE_POLL_S)
        counters = rpc(d.sock, {"op": "ping"}).get("counters", {})
    finally:
        d.stop()
    if job["state"] != "done":
        raise CheckFailed("served job ended %s" % job["state"])
    if digest(out) != digest(want):
        ctx["errors"].append("served MSA differs from the in-process result")
    return serve_layer([ack_ms], int(r.get("queue_depth", 0)), 1, d.journal,
                       library_s * 1e3, job["updated_ms"] - due * 1e3,
                       counters, [late_ms])


def serve_trace(ctx):
    r = serve_run(ctx)
    layers, _ = probe_json(ctx["probe"], "replay", "--list", r["cases"],
                           "--procs", "4", "--threads", "1", "--chrome",
                           ctx["chrome"])
    job_p50 = statistics.median(r["lat"]) if r["lat"] else 0.0
    layers.update(serve_layer(r["acks"], r["backlog"], r["njobs"],
                              r["journal"], r["expect"]["align_p50_ms"],
                              job_p50, r["counters"], r["late"]))
    return r["njobs"], r["failed"], layers


# ---- main ------------------------------------------------------------------

RUNNERS = {
    "family-seq": (cli_workload, cli_trace),
    "genome-sad": (cli_workload, cli_trace),
    "refs-batch": (refs_workload, refs_trace),
    "serve-open": (serve_workload, serve_trace),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="'min' runs a minimal input (self-tests)")
    ap.add_argument("--corrupt-output", action="store_true",
                    help="self-test: corrupt one output; the run must fail")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    bdir = build_dir(build_root)
    salign, probe = build(bdir)
    tag = "%s-%d-%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(bdir, "work", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    traces = os.path.join(bdir, "traces")
    os.makedirs(traces, exist_ok=True)
    ctx = {"salign": salign, "probe": probe, "work": work, "args": args,
           "errors": [], "human": [],
           "chrome": os.path.join(traces, tag + ".json")}

    print("perfbench %s seed=%d seconds=%g trace=%d size=%s host: %s"
          % (args.workload, args.seed, args.seconds, args.trace, args.size,
             host_context(bdir)))
    try:
        attempted, failed, values = RUNNERS[args.workload][args.trace](ctx)
    except CheckFailed as e:
        ctx["errors"].append(str(e))
        attempted, failed, values = 1, 1, {}
    if args.trace:
        for k in SERVE_LAYER:
            values.setdefault(k, 0.0)
        print("chrome trace: %s" % ctx["chrome"])
    for name, value, unit, note in ctx["human"]:
        print("  %-16s %14.6g %-6s %s" % (name, value, unit, note))

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            ctx["errors"].append("metric %s was not measured" % m["name"])
            continue
        metrics[m["name"]] = {"value": float(values[m["name"]]),
                              "unit": m["unit"]}
    if args.trace:
        for name in sorted(metrics):
            print("  %-34s %14.6g %s" % (name, metrics[name]["value"],
                                          metrics[name]["unit"]))
    for e in ctx["errors"]:
        print("CHECK FAILED: %s" % e)
    correct = not ctx["errors"]
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed if correct else max(failed, 1),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
