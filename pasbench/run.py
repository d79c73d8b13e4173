#!/usr/bin/env python3
"""PASim benchmark: one command, three workloads, correctness checked.

    python3 pasbench/run.py --workload paper_grid --seed 1 --seconds 10 --trace 0
    python3 pasbench/run.py --workload serve_mixed --seed 7 --seconds 10 --trace 1
    python3 pasbench/run.py --smoke                  # self-test at tiny sizes
    python3 pasbench/run.py --compare A.json B.json  # two recorded results

Run from the root of a PASim source tree. The first run configures and
builds pasbench/ (the repository's libraries, pasim_serve and the
harness) into .bench_build/. Every measured pass is a fresh process.
The last line on stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
Each result is also recorded with the host fingerprint under
.bench_build/results/. See pasbench/README.md.
"""
import argparse
import filecmp
import hashlib
import itertools
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
WORK = os.path.join(BUILD, "work")
RESULTS = os.path.join(BUILD, "results")
HARNESS = os.path.join(CMAKE_DIR, "pasbench_harness")
SERVE = os.path.join(CMAKE_DIR, "pasim_serve")
BUILD_TYPE = "RelWithDebInfo"
GOLDEN_REPORT = os.path.join(ROOT, "pasim_report")
WORKLOADS = ("paper_grid", "fault_ensemble", "serve_mixed")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
PROC_TIMEOUT_S = 150.0
# serve_mixed answers a fixed block of queries, split over SERVE_WINDOWS
# windows and sized so that together they last about --seconds at the
# reference host's closed-loop rate (4 cores).
SERVE_QPS_REF = 60
SERVE_WINDOWS = 5


class BenchError(Exception):
    """The benchmark cannot produce a result (exit code != 0)."""


def log(msg):
    print("pasbench: " + msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def offline_jobs():
    """Executor jobs of the timed offline passes. The sweep's wall time is
    flat in --jobs (each kernel's N=1 column bounds it), and on a shared
    host more threads only widen the spread between runs, so the passes
    use two."""
    return min(2, nproc())


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile, q in [0, 1]."""
    if not values:
        return 0.0
    v = sorted(values)
    rank = min(len(v), max(1, int(q * len(v) + 0.999999)))
    return v[rank - 1]


# ---------------------------------------------------------------------
# Build and fingerprint


def build():
    for rel in ("src/CMakeLists.txt", "tools/pasim_serve.cpp", "pasim_report/REPORT.md"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise BenchError("not a PASim source tree (missing %s)" % rel)
    os.makedirs(CMAKE_DIR, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    with open(build_log, "ab") as out:
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            r = subprocess.run(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                                "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                               stdout=out, stderr=subprocess.STDOUT)
            if r.returncode != 0:
                raise BenchError("cmake configure failed (see %s)" % build_log)
        r = subprocess.run(["cmake", "--build", CMAKE_DIR, "-j", str(nproc())],
                           stdout=out, stderr=subprocess.STDOUT)
        if r.returncode != 0:
            raise BenchError("build failed (see %s)" % build_log)


def cmake_cache():
    cache = {}
    with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^([A-Za-z_0-9]+):[A-Z]+=(.*)$", line.rstrip("\n"))
            if m:
                cache[m.group(1)] = m.group(2)
    return cache


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "tools", "pasbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git(*args):
    try:
        r = subprocess.run(["git", "-C", ROOT] + list(args), capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def fingerprint():
    cache = cmake_cache()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(cache.get(k, "") for k in (
        "CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_" + build_type.upper(), "CMAKE_EXE_LINKER_FLAGS"))
    sanitizer = ",".join(sorted(set(re.findall(r"-fsanitize=([A-Za-z,]+)", flags))))
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "compiler": version,
        "build_type": build_type,
        "sanitizer": sanitizer,
        "git_sha": sha or "none",
        "dirty": (status != "") if sha else None,
        "source_digest": source_digest(),
    }


def refuse_unfit(fp):
    if fp["build_type"] not in ("Release", "RelWithDebInfo", "MinSizeRel"):
        raise BenchError("refusing to record from a %r build" % (fp["build_type"] or "no-type"))
    if fp["sanitizer"]:
        raise BenchError("refusing to record from a sanitizer build (%s)" % fp["sanitizer"])


def comparable_keys(fp):
    return {k: fp.get(k) for k in ("nproc", "cpu_model", "compiler", "build_type", "sanitizer")}


# ---------------------------------------------------------------------
# Processes: every child is reaped with wait4 for its own rusage.


class Proc:
    def __init__(self, argv, stdout_path, stderr_path):
        self.stdout_path = stdout_path
        self.t_spawn = time.monotonic()
        with open(stdout_path, "wb") as out, open(stderr_path, "ab") as err:
            self.p = subprocess.Popen(argv, stdout=out, stderr=err, cwd=WORK,
                                      stdin=subprocess.DEVNULL)
        self.rusage = None
        self.code = None

    def poll(self):
        if self.code is None:
            pid, status, ru = os.wait4(self.p.pid, os.WNOHANG)
            if pid != 0:
                self._reaped(status, ru)
        return self.code

    def wait(self, timeout):
        deadline = time.monotonic() + timeout
        while self.poll() is None:
            if time.monotonic() > deadline:
                self.kill()
                raise BenchError("%s timed out" % os.path.basename(self.p.args[0]))
            time.sleep(0.002)
        return self.code

    def kill(self):
        if self.code is None:
            try:
                self.p.kill()
            except ProcessLookupError:
                pass
            _, status, ru = os.wait4(self.p.pid, 0)
            self._reaped(status, ru)

    def _reaped(self, status, ru):
        self.t_exit = time.monotonic()
        self.code = os.waitstatus_to_exitcode(status)
        self.p.returncode = self.code
        self.rusage = ru

    def cpu_s(self):
        return self.rusage.ru_utime + self.rusage.ru_stime

    def rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0

    def json(self):
        with open(self.stdout_path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if not lines:
            raise BenchError("%s printed no result" % os.path.basename(self.p.args[0]))
        return json.loads(lines[-1])


def harness(args, tag, timeout=PROC_TIMEOUT_S):
    """Runs one fresh harness process to completion."""
    p = Proc([HARNESS] + args, os.path.join(WORK, tag + ".out"),
             os.path.join(WORK, "harness.err"))
    p.wait(timeout)
    if p.code != 0:
        raise BenchError("harness %s exited %d (see %s)" % (
            args[0], p.code, os.path.join(WORK, "harness.err")))
    p.result = p.json()
    return p


def setup_samples(mode, extra, reps=10):
    """Launch-to-ready seconds of `reps` fresh processes that stop after
    set-up: process start, static init, and the spec/env/executor/kernel
    construction before the first run."""
    out = []
    for i in range(reps):
        p = harness([mode, "--setup-only"] + extra, "setup%d" % i)
        out.append(p.result["setup_end_mono"] - p.t_spawn)
    return out


def same_tree(a, b):
    """True when directories a and b hold byte-identical files."""
    names_a = sorted(os.listdir(a))
    if names_a != sorted(os.listdir(b)):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, names_a, shallow=False)
    return not mismatch and not errors


# ---------------------------------------------------------------------
# Offline workloads


def grid_pass(jobs, small, tag, reference=None):
    out_dir = os.path.join(WORK, tag)
    shutil.rmtree(out_dir, ignore_errors=True)
    args = ["grid", "--jobs", str(jobs), "--out", out_dir]
    if small:
        args.append("--small")
    p = harness(args, tag)
    p.out_dir = out_dir
    p.setup_s = p.result["setup_end_mono"] - p.t_spawn
    if reference is not None:
        p.same = same_tree(out_dir, reference)
    return p


def grid_reference(small):
    """The tree a grid pass must reproduce: the committed pasim_report/
    at paper scale; at test scale, a jobs-1 pass."""
    if not small:
        return GOLDEN_REPORT
    return grid_pass(1, True, "grid_ref").out_dir


def offline_passes(run_pass, seconds, min_passes):
    """Fresh-process passes for about `seconds`, at least `min_passes`
    of them; a pass that would end past the window is not started."""
    passes = []
    t_end = time.monotonic() + seconds
    while len(passes) < min_passes or \
            time.monotonic() + median([p.t_exit - p.t_spawn for p in passes]) <= t_end:
        passes.append(run_pass())
    return passes


def offline_e2e(passes, setups):
    """Medians over passes. A latency sample is one whole request: a
    fresh process from launch to exit, as a full_report or
    resilience_sweep invocation is to its caller."""
    wall = median([p.result["wall_s"] for p in passes])
    requests = [p.t_exit - p.t_spawn for p in passes]
    return {
        "setup_s": (median(setups + [p.setup_s for p in passes]), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (median([p.cpu_s() for p in passes]), "s"),
        "peak_rss_mb": (median([p.rss_mb() for p in passes]), "MB"),
        "qps": (passes[0].result["points"] / wall, "1/s"),
        "latency_p50_ms": (1e3 * median(requests), "ms"),
        "latency_p99_ms": (1e3 * percentile(requests, 0.99), "ms"),
    }


def run_paper_grid(a, small):
    jobs = offline_jobs()
    reference = grid_reference(small)
    setups = setup_samples("grid", ["--small"] if small else [])
    # A traced run times no window: one untraced pass at offline_jobs() is
    # its baseline.
    passes = offline_passes(lambda: grid_pass(jobs, small, "grid_pass", reference),
                            0 if a.trace else a.seconds, 1 if a.trace else 3)
    attempted = failed = 0
    notes = []
    for i, p in enumerate(passes):
        attempted += p.result["points"]
        if p.result["write_failed"] or not p.same:
            failed += p.result["points"]
            notes.append("pass %d: report differs from %s" % (i, os.path.relpath(reference, ROOT)))
    m = offline_e2e(passes, setups)
    info = {"passes": len(passes), "jobs": jobs,
            "pass_wall_s": [p.result["wall_s"] for p in passes],
            "latency_samples": len(passes),
            "latency_unit_of_work": "one paper-grid request (process launch to exit)",
            "notes": notes}
    if not a.trace:
        return m, attempted, failed, info
    # Traced run: untraced timed-jobs pass (above), a jobs-1 executor
    # pass, then the same grid decomposed with spans, each in a fresh
    # process; then the layer probes.
    one = grid_pass(1, small, "grid_jobs1", reference)
    attempted += one.result["points"]
    if not one.same:
        failed += one.result["points"]
        notes.append("jobs-1 pass: report differs")
    tdir = os.path.join(WORK, "grid_trace")
    shutil.rmtree(tdir, ignore_errors=True)
    targs = ["grid-trace", "--out", tdir,
             "--trace-out", os.path.join(WORK, "paper_grid.spans.jsonl")]
    if small:
        targs.append("--small")
    tr = harness(targs, "grid_trace").result
    attempted += tr["points"]
    if tr["digest"] != one.result["digest"] or not same_tree(tdir, reference):
        failed += tr["points"]
        notes.append("traced decomposition differs from the executor's records")
    probes = run_probes(small)
    lay = tr["layers"]
    spans = tr["spans"]
    fit_s = spans.get("core.fit", {}).get("self_s", 0.0)
    report_s = spans.get("obs.report", {}).get("total_s", 0.0)
    sim_s = lay["column_s"] + lay["point_s"]
    exec_s = sum(one.result["sweep_s"])
    pl = layer_defaults()
    pl.update(probes)
    pl.update({
        "analysis.run_matrix.column_s": (lay["column_s"], "s"),
        "analysis.run_matrix.column_max_s": (lay["column_max_s"], "s"),
        "analysis.run_matrix.columns": (lay["columns"], "count"),
        "mpi.messages": (lay["messages"], "count"),
        "mpi.share_est": (lay["messages"] * probes["mpi.p2p_us"][0] * 1e-6 / sim_s
                          if sim_s > 0 else 0.0, "ratio"),
        "analysis.repricer.s": (lay["repricer_s"], "s"),
        "analysis.repricer.lanes": (one.result["repricer_lanes_counter"], "count"),
        "analysis.repricer.ns_per_op": (lay["repricer_ns_per_op"], "ns"),
        "sim.ledger_ops": (lay["ledger_ops"], "count"),
        "sim.ledger_bytes": (lay["ledger_bytes"], "B"),
        "analysis.executor.overhead_s": (exec_s - sim_s - lay["repricer_s"], "s"),
        "analysis.executor.speedup": ((sim_s + lay["repricer_s"] + fit_s + report_s)
                                      / m["wall_s"][0], "x"),
        "core.fit_s": (fit_s, "s"),
        "obs.report_s": (report_s, "s"),
        "fault.completed_frac": (1.0, "ratio"),
        "trace.coverage": (tr["coverage"], "ratio"),
        "trace.overhead_s": (tr["total_s"] - one.result["total_s"], "s"),
    })
    info.update({"jobs1_wall_s": one.result["wall_s"], "traced_wall_s": tr["traced_wall_s"],
                 "spans": spans})
    return pl, attempted, failed, info


def fault_args(jobs, seed, small, traced=False):
    args = ["faults-trace" if traced else "faults", "--seed", str(seed)]
    if traced:
        args += ["--trace-out", os.path.join(WORK, "fault_ensemble.spans.jsonl")]
    else:
        args += ["--jobs", str(jobs)]
    if small:
        args.append("--small")
    return args


def fault_pass(jobs, seed, small, tag, traced=False):
    p = harness(fault_args(jobs, seed, small, traced), tag)
    p.setup_s = p.result["setup_end_mono"] - p.t_spawn
    return p


def harness_side_by_side(runs):
    """Runs (args, tag) harness processes at the same time and waits for
    all of them. Only for untimed work: they compete for the cores."""
    procs = []
    try:
        for args, tag in runs:
            procs.append(Proc([HARNESS] + args, os.path.join(WORK, tag + ".out"),
                              os.path.join(WORK, "harness.err")))
        for p in procs:
            p.wait(PROC_TIMEOUT_S)
    finally:
        for p in procs:
            p.kill()  # reaps any process left by an error; no-op otherwise
    for p, (args, _) in zip(procs, runs):
        if p.code != 0:
            raise BenchError("harness %s exited %d (see %s)" % (
                args[0], p.code, os.path.join(WORK, "harness.err")))
        p.result = p.json()
    return procs


FAULT_SEEDS_PER_RUN = 3


def run_fault_ensemble(a, small):
    jobs = offline_jobs()
    # The program sees only fault seeds derived from the run seed. How
    # much work an ensemble does depends on its fault seed (aborted points
    # pay for their retries), so pass i draws seed i mod 3 of the run and
    # the medians over passes cover three fault draws, not one.
    fault_seeds = [1000 * (i + 1) + a.seed for i in range(FAULT_SEEDS_PER_RUN)]
    extra = ["--seed", str(fault_seeds[0])] + (["--small"] if small else [])
    setups = setup_samples("faults", extra)
    seed_of_pass = itertools.cycle(fault_seeds)
    passes = offline_passes(lambda: fault_pass(jobs, next(seed_of_pass), small, "fault_pass"),
                            0 if a.trace else a.seconds, 1 if a.trace else 3)
    # Correctness: every timed pass's record digest must equal a --jobs 1
    # pass's of the same fault seed. The jobs-1 passes run after the timed
    # ones; with more than one seed they run side by side.
    used = fault_seeds[:min(len(passes), len(fault_seeds))]
    if len(used) == 1:
        ones = [fault_pass(1, used[0], small, "fault_jobs1")]
    else:
        ones = harness_side_by_side([(fault_args(1, sd, small), "fault_jobs1_%d" % sd)
                                     for sd in used])
    one = ones[0]
    attempted = failed = 0
    notes = []
    for i, p in enumerate(passes):
        points = p.result["points"]
        attempted += points
        ref = ones[i % len(ones)].result["digest"]
        if p.result["digest"] != ref:
            failed += points
            notes.append("pass %d: jobs-%d digest %s != jobs-1 digest %s" % (
                i, jobs, p.result["digest"], ref))
    m = offline_e2e(passes, setups)
    counters = one.result["counters"]
    points = one.result["points"]
    info = {"passes": len(passes), "jobs": jobs, "fault_seeds": used,
            "pass_wall_s": [p.result["wall_s"] for p in passes],
            "latency_samples": len(passes),
            "latency_unit_of_work": "one ensemble request (process launch to exit)",
            "digests": [o.result["digest"] for o in ones],
            "aborted_points": [o.result["counters"]["aborted_points"] for o in ones],
            "notes": notes}
    if not a.trace:
        return m, attempted, failed, info

    tr = fault_pass(1, used[0], small, "fault_trace", traced=True).result
    attempted += tr["points"]
    if tr["digest"] != one.result["digest"]:
        failed += tr["points"]
        notes.append("traced point-by-point records differ from the executor's")
    probes = run_probes(small)
    tc = tr["counters"]
    pl = layer_defaults()
    pl.update(probes)
    exec_s = sum(one.result["sweep_s"])
    pl.update({
        "analysis.run_matrix.faulted_point_s": (tr["faulted_point_s"], "s"),
        "analysis.run_matrix.faulted_point_max_s": (tr["faulted_point_max_s"], "s"),
        "fault.message_drops": (tc["fault.message_drops"], "count"),
        "fault.message_delays": (tc["fault.message_delays"], "count"),
        "analysis.executor.send_retries": (counters["record_send_retries"], "count"),
        "analysis.executor.run_retries": (counters["record_run_retries"], "count"),
        "fault.aborted_points": (counters["aborted_points"], "count"),
        "fault.completed_frac": (1.0 - counters["aborted_points"] / points, "ratio"),
        "mpi.deadlocks": (counters["mpi.deadlocks"], "count"),
        "analysis.repricer.lanes": (counters["repricer_lanes"], "count"),
        "analysis.executor.overhead_s": (exec_s - tr["faulted_point_s"], "s"),
        "analysis.executor.speedup": (tr["faulted_point_s"] / m["wall_s"][0], "x"),
        "trace.coverage": (tr["coverage"], "ratio"),
        "trace.overhead_s": (tr["total_s"] - one.result["total_s"], "s"),
    })
    info.update({"jobs1_wall_s": one.result["wall_s"], "traced_wall_s": tr["traced_wall_s"],
                 "spans": tr["spans"]})
    return pl, attempted, failed, info


# ---------------------------------------------------------------------
# Layer probes (traced runs)

PROBE_UNITS = {
    "npb.ep.n1_s": "s", "npb.ft.n1_s": "s", "npb.lu.n1_s": "s",
    "npb.cg.n1_s": "s", "npb.mg.n1_s": "s",
    "mpi.p2p_us": "us", "mpi.barrier16_us": "us", "mpi.alltoall16_us": "us",
    "serve.protocol.encode_us": "us", "serve.protocol.decode_us": "us",
    "serve.cas.codec_us": "us",
    "analysis.run_cache.store_ms": "ms", "analysis.run_cache.lookup_ms": "ms",
    "analysis.run_cache.ledger_store_ms": "ms", "analysis.journal.append_ms": "ms",
    "sim.checkpoint.encode_ms": "ms", "sim.checkpoint.decode_ms": "ms",
    "util.subprocess.spawn_ms": "ms",
}


def run_probes(small):
    args = ["probes", "--scratch", os.path.join(WORK, "probe_scratch")]
    if small:
        args.append("--small")
    r = harness(args, "probes").result
    if not r.get("ok"):
        raise BenchError("layer probes failed a round-trip check")
    return {k: (r[k], u) for k, u in PROBE_UNITS.items()}


def layer_defaults():
    """Every per-layer metric, zero where the workload does not exercise
    the layer (the README lists which apply where)."""
    out = {}
    for m in load_spec()["per_layer"]:
        out[m["name"]] = (0.0, m["unit"])
    return out


# ---------------------------------------------------------------------
# serve_mixed


def vm_hwm_mb(pid):
    """A live process's own peak resident set (VmHWM), without children."""
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def free_ports(n):
    socks, ports = [], []
    for _ in range(n):
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        s.bind(("127.0.0.1", 0))
        socks.append(s)
        ports.append(s.getsockname()[1])
    for s in socks:
        s.close()
    return ports


def request(port, op, timeout=2.0):
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(json.dumps({"op": op}).encode() + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf.decode())


class Fleet:
    """Two pasim_serve brokers peered over loopback TCP, one worker slot
    each, each with a fresh cache and journal."""

    def __init__(self, tag):
        self.dir = os.path.join(WORK, tag)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        # Flush what earlier windows and runs left dirty, so the brokers'
        # fsyncs do not pay for it.
        os.sync()
        self.ports = free_ports(2)
        self.addrs = ["127.0.0.1:%d" % p for p in self.ports]
        self.caches = [os.path.join(self.dir, "cache%d" % i) for i in range(2)]
        self.stderr = [os.path.join(self.dir, "broker%d.err" % i) for i in range(2)]
        self.metrics = [os.path.join(self.dir, "metrics%d.csv" % i) for i in range(2)]
        self.procs = []
        t0 = time.monotonic()
        for i in range(2):
            argv = [SERVE, "--tcp", str(self.ports[i]), "--workers", "1",
                    "--cache", self.caches[i],
                    "--journal", os.path.join(self.dir, "journal%d" % i),
                    "--metrics-csv", self.metrics[i],
                    "--peer", self.addrs[1 - i]]
            self.procs.append(Proc(argv, os.path.join(self.dir, "broker%d.out" % i),
                                   self.stderr[i]))
        try:
            for port in self.ports:
                self._await_ping(port)
        except BenchError:
            self.stop()
            raise
        self.setup_s = time.monotonic() - t0

    def _await_ping(self, port, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if any(p.poll() is not None for p in self.procs):
                raise BenchError("a broker exited during start-up")
            try:
                if request(port, "ping").get("ok"):
                    return
            except (OSError, ValueError):
                time.sleep(0.001)
        raise BenchError("broker on port %d never answered ping" % port)

    def stats(self):
        return [request(p, "stats").get("stats", {}) for p in self.ports]

    def stop(self):
        for port, p in zip(self.ports, self.procs):
            if p.poll() is None:
                try:
                    request(port, "shutdown")
                except (OSError, ValueError):
                    p.p.send_signal(signal.SIGTERM)
        for p in self.procs:
            try:
                p.wait(20.0)
            except BenchError:
                pass  # killed and reaped by wait()

    def counters(self):
        total = {}
        for path in self.metrics:
            if not os.path.isfile(path):
                continue
            with open(path) as f:
                for line in f:
                    parts = line.strip().split(",")
                    if len(parts) == 4 and parts[1] == "counter":
                        total[parts[0]] = total.get(parts[0], 0.0) + float(parts[3])
        return total

    def cooldowns(self):
        n = 0
        for path in self.stderr:
            with open(path, errors="replace") as f:
                n += sum("cooling down" in line for line in f)
        return n


def serve_window(a, small, traced, tag, queries, oracle=None):
    fleet = Fleet(tag)
    try:
        clients = min(4, nproc())
        args = ["loadgen", "--broker", fleet.addrs[0], "--broker", fleet.addrs[1],
                "--cache-dir", fleet.caches[0], "--cache-dir", fleet.caches[1],
                "--seed", str(a.seed), "--clients", str(clients),
                "--queries", str(queries), "--max-seconds", str(3 * a.seconds + 30)]
        if oracle:
            args += ["--oracle", oracle]
        if traced:
            args += ["--trace-out", os.path.join(WORK, "serve_mixed.spans.jsonl")]
        lg = harness(args, tag + "_loadgen", timeout=a.seconds + 150.0)
        stats = fleet.stats()
        fleet.hwm_mb = [vm_hwm_mb(p.p.pid) for p in fleet.procs]
    finally:
        fleet.stop()
    lg.fleet = fleet
    lg.stats = stats
    return lg


def run_serve_mixed(a, small):
    # SERVE_WINDOWS fresh fleets replay the same seeded plan; each
    # contributes a set-up time, a peak RSS, a rate and its own latency
    # percentiles, and every metric is the median over windows, so one
    # window caught in a host stall does not move it. The windows share
    # one offline oracle, computed by the first. A traced run uses one
    # untraced window as the baseline of its traced one.
    queries = 40 if small else int(SERVE_QPS_REF * a.seconds / SERVE_WINDOWS)
    oracle = os.path.join(WORK, "serve_oracle.json")
    if os.path.exists(oracle):
        os.remove(oracle)
    windows = [serve_window(a, small, False, "fleet%d" % i, queries, oracle)
               for i in range(1 if a.trace else SERVE_WINDOWS)]
    attempted = failed = 0
    walls, cpus, qps, p50s, p99s, notes = [], [], [], [], [], []
    for lg in windows:
        r = lg.result
        attempted += int(r["attempted"])
        failed += int(r["failed"])
        completed = r["attempted"] - r["failed"]
        per_k = 1000.0 / completed if completed > 0 else 0.0
        walls.append(r["elapsed_s"] * per_k)
        cpus.append((sum(p.cpu_s() for p in lg.fleet.procs) + r["cpu_window_s"]) * per_k)
        qps.append(r["qps"])
        p50s.append(percentile(r["latencies_ms"], 0.50))
        p99s.append(percentile(r["latencies_ms"], 0.99))
        if r["first_error"]:
            notes.append(r["first_error"])
    m = {
        "setup_s": (median([lg.fleet.setup_s for lg in windows]), "s"),
        "wall_s": (median(walls), "s"),
        "cpu_s": (median(cpus), "s"),
        "peak_rss_mb": (median([max(lg.fleet.hwm_mb) for lg in windows]), "MB"),
        "qps": (median(qps), "1/s"),
        "latency_p50_ms": (median(p50s), "ms"),
        "latency_p99_ms": (median(p99s), "ms"),
    }
    r = windows[-1].result
    info = {"clients": min(4, nproc()), "loop": "closed", "windows": len(windows),
            "queries_per_window": queries,
            "latency_samples": sum(len(lg.result["latencies_ms"]) for lg in windows),
            "window_qps": qps, "window_p50_ms": p50s, "window_p99_ms": p99s,
            "planned": r["planned"], "class_counts_per_window":
                {c: r[c + "_count"] for c in ("cold", "repeat", "extend")},
            "wall_and_cpu_per": "1000 completed queries", "notes": notes}
    if not a.trace:
        return m, attempted, failed, info

    tlg = serve_window(a, small, True, "fleet_traced", queries)
    t = tlg.result
    attempted += int(t["attempted"])
    failed += int(t["failed"])
    probes = run_probes(small)
    c = tlg.fleet.counters()
    t_completed = t["attempted"] - t["failed"]
    per_point_ms = (probes["serve.protocol.encode_us"][0] + probes["serve.protocol.decode_us"][0]
                    + probes["serve.cas.codec_us"][0]) / 1e3 \
        + probes["analysis.run_cache.store_ms"][0] + probes["analysis.journal.append_ms"][0]
    attributed = t["offline_ms_cold"] + 3 * per_point_ms + probes["util.subprocess.spawn_ms"][0]
    unattributed = t["cold_ms_p50"] - attributed
    pl = layer_defaults()
    pl.update(probes)
    pl.update({
        "serve.client.cold_ms.p50": (t["cold_ms_p50"], "ms"),
        "serve.client.repeat_ms.p50": (t["repeat_ms_p50"], "ms"),
        "serve.client.extend_ms.p50": (t["extend_ms_p50"], "ms"),
        "serve.client.samples": (t["samples"], "count"),
        "serve.offline_ms.cold": (t["offline_ms_cold"], "ms"),
        "serve.overhead_ms.cold": (t["overhead_ms_cold"], "ms"),
        "serve.unattributed_ms.cold": (unattributed, "ms"),
        "serve.warm_ratio": (t["warm_ratio"], "ratio"),
        "serve.warmstart_ratio": (t["warmstart_ratio"], "ratio"),
        "serve.broker_cpu_s": (sum(p.cpu_s() for p in tlg.fleet.procs), "s"),
        "serve.peer_cooldowns": (tlg.fleet.cooldowns(), "count"),
        "fault.completed_frac": (1.0, "ratio"),
        "trace.coverage": (1.0 - unattributed / t["cold_ms_p50"] if t["cold_ms_p50"] else 0.0,
                           "ratio"),
        "trace.overhead_s": (t["elapsed_s"] * 1e3 / t_completed - median(walls)
                             if t_completed else 0.0, "s"),
    })
    for name in ("serve.cache_hits", "serve.dedup_hits", "serve.forwarded_columns",
                 "serve.steal_columns", "cas.hit", "cas.miss", "runcache.ckpt_hits",
                 "serve.worker_restarts", "serve.worker_crashes", "serve.worker_timeouts",
                 "serve.peer_failures"):
        pl[name] = (c.get(name, 0.0), "count")
    info.update({"traced_stats": tlg.stats, "spans": t.get("spans", {})})
    return pl, attempted, failed, info


# ---------------------------------------------------------------------
# Result assembly


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


RUNNERS = {"paper_grid": run_paper_grid, "fault_ensemble": run_fault_ensemble,
           "serve_mixed": run_serve_mixed}


def run_workload(a, small=False):
    os.makedirs(WORK, exist_ok=True)
    metrics, attempted, failed, info = RUNNERS[a.workload](a, small)
    spec = load_spec()
    wanted = spec["per_layer" if a.trace else "end_to_end"]
    if not a.trace:
        metrics["ok_frac"] = ((attempted - failed) / attempted if attempted else 0.0, "ratio")
    out = {}
    for m in wanted:
        value, unit = metrics[m["name"]]
        out[m["name"]] = {"value": float(value), "unit": unit}
    result = {"correct": failed == 0 and attempted > 0, "attempted": int(attempted),
              "failed": int(failed), "metrics": out}
    return result, info


def record(a, result, info, fp):
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (a.workload, a.seed, a.trace))
    with open(path, "w") as f:
        json.dump({"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
                   "trace": a.trace, "fingerprint": fp, "result": result, "info": info},
                  f, indent=1, sort_keys=True)
    return path


def compare(paths):
    docs = []
    for p in paths:
        with open(p) as f:
            docs.append(json.load(f))
    fa, fb = (comparable_keys(d["fingerprint"]) for d in docs)
    differ = {k: (fa[k], fb[k]) for k in fa if fa[k] != fb[k]}
    if differ:
        print("WARNING: fingerprints differ; these results are not comparable:")
        for k, (x, y) in differ.items():
            print("  %s: %r vs %r" % (k, x, y))
    ma, mb = (d["result"]["metrics"] for d in docs)
    for name in sorted(set(ma) & set(mb)):
        x, y = ma[name]["value"], mb[name]["value"]
        rel = "%+.1f%%" % (100.0 * (y - x) / x) if x else "n/a"
        print("%-40s %14.6g %14.6g %s %s" % (name, x, y, ma[name]["unit"], rel))
    return 1 if differ else 0


# ---------------------------------------------------------------------
# Self-test


def smoke():
    spec = load_spec()
    for key in ("end_to_end", "per_layer"):
        for m in spec[key]:
            assert NAME_RE.match(m["name"]), "bad metric name %r" % m["name"]
    problems = []
    for wl in WORKLOADS:
        assert NAME_RE.match(wl)
        for trace in (0, 1):
            a = argparse.Namespace(workload=wl, seed=3, seconds=2, trace=trace)
            result, info = run_workload(a, small=True)
            names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            for n in names:
                mm = result["metrics"].get(n)
                if mm is None or not mm.get("unit"):
                    problems.append("%s trace %d: %s missing or without unit" % (wl, trace, n))
            for n in result["metrics"]:
                if not NAME_RE.match(n):
                    problems.append("%s: metric name %r" % (wl, n))
            if not result["correct"]:
                problems.append("%s trace %d: correctness failed: %s" % (wl, trace, info.get("notes")))
            if trace and wl != "serve_mixed":
                cov = result["metrics"]["trace.coverage"]["value"]
                if cov < 0.9:
                    problems.append("%s: trace.coverage %.3f < 0.9" % (wl, cov))
            log("smoke %s trace %d: attempted %d failed %d" % (
                wl, trace, result["attempted"], result["failed"]))
    # Why every measured pass is a fresh process: a second pass in one
    # process reuses EP's memoized slices and sequential reference.
    tag = os.path.join(WORK, "warm_check")
    shutil.rmtree(tag, ignore_errors=True)
    warm = harness(["grid", "--jobs", "1", "--passes", "2",
                    "--out", tag], "warm_check").result
    # EP's own sweep isolates the memoized work from host drift over the
    # rest of the pass.
    ep = [sweeps[0] for sweeps in warm["pass_sweep_s"]]
    log("in-process passes: cold %.3f s, warm %.3f s; EP sweep cold %.3f s, warm %.3f s "
        "(the warm pass skips memoized EP work, so it is never timed)" % (
            warm["pass_wall_s"][0], warm["pass_wall_s"][1], ep[0], ep[1]))
    if not ep[1] < ep[0]:
        problems.append("warm EP sweep not faster than cold: %r" % ep)
    for p in problems:
        log("SMOKE FAIL: " + p)
    log("smoke: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="self-test at tiny sizes")
    ap.add_argument("--compare", nargs=2, metavar="RESULT_JSON")
    a = ap.parse_args()
    if a.compare:
        return compare(a.compare)
    try:
        if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
            raise BenchError("BENCHMARK.json not found at %s" % ROOT)
        build()
        fp = fingerprint()
        refuse_unfit(fp)
        if a.smoke:
            return smoke()
        if not a.workload:
            ap.error("--workload is required")
        result, info = run_workload(a)
        path = record(a, result, info, fp)
    except BenchError as e:
        log("error: %s" % e)
        return 2
    log("recorded %s (fingerprint %s)" % (os.path.relpath(path, ROOT),
                                          json.dumps(comparable_keys(fp), sort_keys=True)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
