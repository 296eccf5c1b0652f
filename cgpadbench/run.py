#!/usr/bin/env python3
"""The cgpad benchmark: one closed-loop load generator over cgpad's Unix socket.

Run from the repository root:

    python3 cgpadbench/run.py --workload seed_sweep --seed 1 --seconds 10 --trace 0

It builds cgpad and the cgpad_bench helper (cgpadbench/replay) from source
into .bench_build/, spawns the Release cgpad with one worker per CPU, and
drives it over nproc connections, each with one job in flight. --trace 0
prints the end-to-end metrics; --trace 1 prints the per-layer ones (the
daemon's phase ledger from trace:true responses, plus an in-process replay
of the same job stream). The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Any failed output check
exits 1. See cgpadbench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import re
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("seed_sweep", "dse_grid", "cold_specs")

# Pinned CGPA P1 cycles at the default point (workers 4, fifoDepth 16,
# seed 42, scale 1); tests/regression_cycles_test.cpp pins the same values.
PINNED_CYCLES = {
    "kmeans": 100538,
    "hash-indexing": 21349,
    "ks": 10444,
    "em3d": 21360,
    "1d-gaussblur": 39645,
}

# A job unanswered after this long is a deadline miss: failed, +inf
# latency, and its late response is discarded when it arrives. Normal
# jobs answer in well under 0.2 s on every workload.
DEADLINE_S = 1.0
# Set-up is measured this many times per run (each a fresh daemon); the
# median is reported and the last daemon serves the timed window.
SETUPS = 5
# Frames generated per second of window, about ten times (cold_specs:
# three times, its frames are large) the rate a 4-core host sustains; a
# window that exhausts them fails.
FRAMES_PER_SECOND = {"seed_sweep": 2000, "dse_grid": 4000, "cold_specs": 5000}
# Jobs per workload whose responses are compared byte for byte with
# serve::runJobDirect: a seeded sample of seed_sweep (each direct run costs
# a full compile), every cold_specs job (cheap, and each is a new compile),
# and every distinct dse_grid job (below).
DIRECT_SAMPLE = {"seed_sweep": 40, "cold_specs": None}
# The window is cut into this many equal slices and every end-to-end
# timing is the median over slices, so a slow spell of a shared host that
# covers less than half the window does not move it.
SLICES = 5
# The load generator is the bottleneck, not cgpad, when its one
# GIL-bound process spends more than this share of a core.
MAX_GENERATOR_CPU_SHARE = 0.85

BUILD_DIR = os.path.join(".bench_build", "cgpadbench")
RUN_DIR = os.path.join(".bench_build", "run")
# cgpa.jobtrace.v1 phase -> per-layer metric name stem.
PHASES = {"queueWait": "queue_wait", "parse": "parse",
          "cacheLookup": "cache_lookup", "compile": "compile",
          "planBuild": "plan_build", "simulate": "simulate",
          "verify": "verify", "serialize": "serialize"}


class BenchError(Exception):
    """A run that cannot produce trustworthy numbers; main() exits 1."""


def fail(message):
    raise BenchError(message)


def run_threads(target, items):
    """Run target(item) on one thread per item; re-raise the first error."""
    errors = []

    def guarded(item):
        try:
            target(item)
        except Exception as error:  # surfaced below, on the main thread
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(item,)) for item in items]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


# ------------------------------------------------------------------ build

def build():
    """Configure (once) and build cgpad + cgpad_bench; return their paths."""
    for needed in ("src/CMakeLists.txt", "tools/cgpad.cpp",
                   "cgpadbench/replay/CMakeLists.txt"):
        if not os.path.isfile(needed):
            fail("run from the repository root: %s is missing" % needed)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "cgpadbench/replay", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "cgpad",
                  "cgpad_bench", "-j", str(os.cpu_count() or 1)])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.abspath(os.path.join(".bench_build", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               env=env) != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return (os.path.join(BUILD_DIR, "cgpa_tools", "cgpad"),
            os.path.join(BUILD_DIR, "cgpad_bench"))


def tool_lines(tool, *args):
    out = subprocess.run([tool] + [str(a) for a in args], check=True,
                         stdout=subprocess.PIPE).stdout
    return [line + b"\n" for line in out.splitlines()]


# ----------------------------------------------------------------- daemon

class Daemon:
    """A cgpad --socket process, stopped by shutdown() (or killed)."""

    def __init__(self, cgpad, workers, tag):
        os.makedirs(RUN_DIR, exist_ok=True)
        # Relative: Unix socket paths are capped at 108 bytes.
        self.path = os.path.join(RUN_DIR, "cgpad-%d-%s.sock" % (os.getpid(), tag))
        if os.path.exists(self.path):
            os.unlink(self.path)
        self.log_path = self.path[:-len(".sock")] + ".log"
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [cgpad, "--socket", self.path, "--workers", str(workers)],
                stdout=subprocess.DEVNULL, stderr=log)

    def connect(self, timeout_s=30.0):
        """A connected socket, retrying until the listener is up."""
        give_up = time.perf_counter() + timeout_s
        while True:
            if self.proc.poll() is not None:
                with open(self.log_path, errors="replace") as log:
                    fail("cgpad exited during start-up: " + log.read())
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(self.path)
                return sock
            except OSError:
                sock.close()
                if time.perf_counter() > give_up:
                    fail("cgpad socket never came up")
                time.sleep(0.001)

    def request(self, frame):
        """One control request (op=stats/shutdown) on its own connection."""
        conn = Connection(self.connect())
        try:
            conn.sock.sendall(frame)
            line = conn.read_line(time.perf_counter() + 10.0)
        finally:
            conn.close()
        if line is None:
            fail("cgpad did not answer a control request")
        return json.loads(line)

    def server_stats(self):
        return self.request(
            b'{"schema":"cgpa.job.v1","id":"stats","op":"stats"}\n'
        )["serverStats"]

    def cpu_seconds(self):
        with open("/proc/%d/stat" % self.proc.pid) as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mib(self):
        with open("/proc/%d/status" % self.proc.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        fail("no VmHWM for cgpad")

    def shutdown(self):
        if self.proc.poll() is None:
            try:
                self.request(b'{"schema":"cgpa.job.v1","id":"bye","op":"shutdown"}\n')
                self.proc.wait(timeout=30)
            except Exception:
                self.proc.kill()
                self.proc.wait()
        for path in (self.path, self.log_path):
            if os.path.exists(path):
                os.unlink(path)


class Connection:
    """One client connection: frames out, newline-framed responses in."""

    def __init__(self, sock):
        self.sock = sock
        self.buf = b""

    def read_line(self, give_up):
        """Next response line, or None once `give_up` passes."""
        while True:
            cut = self.buf.find(b"\n")
            if cut >= 0:
                line, self.buf = self.buf[:cut], self.buf[cut + 1:]
                return line
            remaining = give_up - time.perf_counter()
            if remaining <= 0:
                return None
            self.sock.settimeout(remaining)
            try:
                chunk = self.sock.recv(1 << 16)
            except socket.timeout:
                return None
            if not chunk:
                fail("cgpad closed a connection")
            self.buf += chunk

    def close(self):
        self.sock.close()


def response_id(line):
    match = re.match(rb'\{"schema":"cgpa\.jobresult\.v1","id":("[^"]*"|-?\d+)', line)
    return json.loads(match.group(1)) if match else None


class Outcome:
    """One attempted job: when it was answered, its latency (None = deadline
    miss) and verdict."""
    __slots__ = ("index", "done", "latency", "line", "doc", "problem")

    def __init__(self, index, done, latency, line):
        self.index = index
        self.done = done
        self.latency = latency
        self.line = line
        self.doc = None
        self.problem = None
        if line is None:
            self.problem = "deadline miss"
            return
        try:
            self.doc = json.loads(line)
        except ValueError:
            self.problem = "unparseable response"
            return
        if self.doc.get("ok") is not True:
            self.problem = "ok:false"
        elif self.doc.get("correct") is not True:
            self.problem = "correct:false"

    @property
    def failed(self):
        return self.problem is not None


def call(conn, frame, job_id, deadline_s, late):
    """Send one frame and wait for the response carrying `job_id`.

    Responses to earlier jobs that missed their deadline arrive late on the
    same connection; they are discarded and counted in late[0], never
    retried. Returns (latency seconds or None on a miss, response line)."""
    sent = time.perf_counter()
    conn.sock.sendall(frame)
    give_up = sent + deadline_s
    while True:
        line = conn.read_line(give_up)
        if line is None:
            return None, None
        if response_id(line) == job_id:
            return time.perf_counter() - sent, line
        late[0] += 1


# ------------------------------------------------------------------- load

def closed_loop(daemon, frames, connections, seconds, deadline_s):
    """Drive `frames` in order over `connections` closed-loop connections
    for `seconds`; every job sent is awaited (answer or deadline) before
    the window closes. Returns (outcomes, elapsed s, late responses,
    generator CPU s, cgpad CPU s); each outcome's `done` is seconds since
    the window opened."""
    conns = [Connection(daemon.connect()) for _ in range(connections)]
    next_index = iter(range(len(frames)))
    lock = threading.Lock()
    outcomes = []
    late = [0]
    exhausted = [False]
    start = time.perf_counter()
    stop = start + seconds

    def loop(conn):
        mine, my_late = [], [0]
        while time.perf_counter() < stop:
            with lock:
                index = next(next_index, None)
            if index is None:
                exhausted[0] = True
                break
            latency, line = call(conn, frames[index], index, deadline_s, my_late)
            mine.append((index, time.perf_counter() - start, latency, line))
        with lock:
            outcomes.extend(mine)
            late[0] += my_late[0]

    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    daemon_cpu0 = daemon.cpu_seconds()
    run_threads(loop, conns)
    elapsed = time.perf_counter() - start
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    daemon_cpu = daemon.cpu_seconds() - daemon_cpu0
    for conn in conns:
        conn.close()
    if exhausted[0]:
        fail("job stream exhausted; raise FRAMES_PER_SECOND")
    gen_cpu = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
    outcomes.sort()
    return ([Outcome(*outcome) for outcome in outcomes], elapsed,
            late[0], gen_cpu, daemon_cpu)


def set_up(cgpad, warm, workers, tag):
    """Spawn cgpad and answer the warm set. Returns (daemon, seconds,
    deadline misses during warm-up, the warm set's outcomes).

    A warm job that misses its deadline is counted and sent again, so the
    warm set is complete when set-up ends; the re-send is never silent."""
    start = time.perf_counter()
    daemon = Daemon(cgpad, workers, tag)
    try:
        conns = [Connection(daemon.connect())
                 for _ in range(min(workers, max(len(warm), 1)))]
        pending = list(range(len(warm)))
        lock = threading.Lock()
        misses = [0]
        answered = []

        def loop(conn):
            late = [0]
            while True:
                with lock:
                    if not pending:
                        return
                    index = pending.pop(0)
                latency, line = call(conn, warm[index], "warm-%d" % index,
                                     DEADLINE_S, late)
                outcome = Outcome(index, 0.0, latency, line)
                if latency is None:
                    with lock:
                        misses[0] += 1
                        pending.append(index)
                        if misses[0] > 10 * len(warm):
                            fail("warm-up keeps missing its deadline")
                elif outcome.failed:
                    fail("warm job %s answered %s"
                         % (warm[index].decode().strip(), outcome.problem))
                else:
                    with lock:
                        answered.append(outcome)

        run_threads(loop, conns)
        for conn in conns:
            conn.close()
    except BaseException:
        daemon.shutdown()
        raise
    return daemon, time.perf_counter() - start, misses[0], answered


# ---------------------------------------------------------------- metrics

def percentile(sorted_values, q):
    """Nearest-rank percentile (q in [0, 1]) of an ascending list."""
    rank = max(1, min(len(sorted_values), int(round(q * len(sorted_values) + 0.5))))
    return sorted_values[rank - 1]


def by_slice(outcomes, window):
    """The outcomes answered in each of the SLICES slices of the window."""
    groups = [[] for _ in range(SLICES)]
    for o in outcomes:
        at = int(o.done * SLICES / window)
        if at < SLICES:
            groups[at].append(o)
    return groups


def slice_median(outcomes, window, weight):
    """Median over slices of Σ weight(outcome) per second."""
    return statistics.median(sum(weight(o) for o in group)
                             for group in by_slice(outcomes, window)) * SLICES / window


def latency_stats(outcomes, window):
    """(p50 ms, tail ms, tail percentile, samples): the medians over slices
    of each slice's percentiles, with misses as +inf. The tail is p99 when
    every slice has ten samples beyond it, else the highest percentile that
    has ten beyond it in the smallest slice."""
    groups = [sorted(o.latency * 1e3 if o.latency is not None else float("inf")
                     for o in group) for group in by_slice(outcomes, window)]
    smallest = min(len(group) for group in groups)
    if smallest == 0:
        fail("a slice of the window answered no job")
    tail_q = 0.99 if smallest >= 1000 else max(0.5, 1.0 - 10.0 / smallest)
    p50 = statistics.median(percentile(group, 0.5) for group in groups)
    tail = statistics.median(percentile(group, tail_q) for group in groups)
    if tail == float("inf"):
        fail("%d of %d jobs missed their deadline: the p%g latency is unbounded"
             % (sum(o.latency is None for o in outcomes), len(outcomes),
                tail_q * 100))
    return p50, tail, tail_q, sum(len(group) for group in groups)


def check_outputs(workload, frames, outcomes, tool, seed):
    """Every output check beyond ok/correct. Returns a list of problems."""
    problems = []
    answered = [o for o in outcomes if o.doc is not None and not o.failed]
    jobs = {o.index: json.loads(frames[o.index]) for o in answered}
    if workload == "dse_grid":
        for o in answered:
            job = jobs[o.index]
            if (job["flow"] == "p1" and job["workers"] == 4 and
                    job["fifoDepth"] == 16 and job["seed"] == 42 and
                    job["scale"] == 1 and
                    o.doc["cycles"] != PINNED_CYCLES[job["kernel"]]):
                problems.append("%s default point answered %d cycles, pinned %d"
                                % (job["kernel"], o.doc["cycles"],
                                   PINNED_CYCLES[job["kernel"]]))
        # Every distinct grid point, once.
        sample, seen = [], set()
        for o in answered:
            job = jobs[o.index]
            point = (job["kernel"], job["flow"], job["workers"], job["fifoDepth"])
            if point not in seen:
                seen.add(point)
                sample.append(o)
        if len(seen) < 180:
            problems.append("only %d of 180 dse_grid points answered" % len(seen))
    elif DIRECT_SAMPLE[workload] is None:
        sample = answered
    else:
        rng = random.Random(seed)
        sample = rng.sample(answered, min(DIRECT_SAMPLE[workload], len(answered)))
    pairs_path = os.path.join(RUN_DIR, "direct-%d.txt" % os.getpid())
    with open(pairs_path, "wb") as pairs:
        for o in sample:
            pairs.write(frames[o.index])
            pairs.write(o.line + b"\n")
    result = subprocess.run([tool, "direct", "--in", pairs_path, "--threads",
                             str(os.cpu_count() or 1)], stdout=subprocess.PIPE)
    os.unlink(pairs_path)
    if result.returncode != 0:
        problems.append("responses differ from serve::runJobDirect: " +
                        result.stdout.decode().strip())
    return problems


def metadata(args):
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "setups": SETUPS,
            "deadline_s": DEADLINE_S}
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            meta["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in cpuinfo
                 if line.startswith("model name")), "unknown")
    except OSError:
        meta["cpu_model"] = "unknown"
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as cache:
        settings = dict(re.findall(r"^(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)$",
                                   cache.read(), re.M))
    meta["build_type"] = settings.get("CMAKE_BUILD_TYPE", "unknown")
    compiler = settings.get("CMAKE_CXX_COMPILER", "c++")
    meta["compiler"] = subprocess.run(
        [compiler, "--version"], stdout=subprocess.PIPE,
        universal_newlines=True).stdout.splitlines()[0]
    git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         universal_newlines=True).stdout.split() \
        if shutil.which("git") else []
    if len(git) == 2 and os.path.realpath(git[0]) == os.path.realpath("."):
        meta["git_ref"] = git[1]
    else:
        # Not a git checkout: fingerprint the sources cgpad is built from.
        digest = hashlib.sha256()
        for top in ("src", "tools"):
            for root, dirs, files in sorted(os.walk(top)):
                dirs.sort()
                for name in sorted(files):
                    with open(os.path.join(root, name), "rb") as source:
                        digest.update(name.encode() + source.read())
        meta["git_ref"] = "tree-sha256:" + digest.hexdigest()[:16]
    return meta


def phase_means_us(outcomes, warm_outcomes):
    """Mean µs of each ledger phase: per job over the traced window, except
    compile, which is per compile over every traced job that compiled (the
    warm set included), since warm caches leave the window none."""
    ledgers = [o.doc["trace"]["phases"] for o in outcomes]
    if not ledgers:
        fail("no traced response carried a phase ledger")
    out = {"phase.%s_us" % stem: statistics.fmean(p[phase] for p in ledgers) / 1e3
           for phase, stem in PHASES.items()}
    compiles = [p["compile"] for p in ledgers + [o.doc["trace"]["phases"]
                                                 for o in warm_outcomes]
                if p["compile"] > 0]
    out["phase.compile_us"] = statistics.fmean(compiles) / 1e3 if compiles else 0.0
    return out


# ------------------------------------------------------------------- main

def per_layer_metrics(args, tool, window, untraced, traced, warmed, stats,
                      setup_misses):
    """Per-layer metrics of a --trace 1 run, with the problems found."""
    outcomes, elapsed = untraced[0], untraced[1]
    t_outcomes = traced[0]
    good = [o for o in outcomes if not o.failed]
    t_good = [o for o in t_outcomes if not o.failed]
    problems = []
    metrics = {name: (value, "us")
               for name, value in phase_means_us(t_good, warmed).items()}
    cache = {key: stats[1]["cache"][key] - stats[0]["cache"][key]
             for key in ("lookups", "hits", "evictions")}
    metrics.update({
        "serve.transport_us": (statistics.fmean(
            o.latency * 1e6 - o.doc["trace"]["endToEndNanos"] / 1e3
            for o in t_good), "us"),
        "serve.response_kib": (statistics.fmean(len(o.line) for o in good) / 1024,
                               "KiB"),
        "serve.deadline_misses": (sum(o.latency is None
                                      for o in outcomes + t_outcomes), "count"),
        "serve.setup_deadline_misses": (setup_misses, "count"),
        "serve.late_responses": (untraced[2] + traced[2], "count"),
        "failed_ratio": ((len(outcomes) - len(good)) / len(outcomes), "fraction"),
        "plan_cache.hit_ratio": (cache["hits"] / max(cache["lookups"], 1), "fraction"),
        "plan_cache.evictions_per_job": (cache["evictions"] / len(outcomes), "count"),
        "trace.overhead_ratio": (
            slice_median(t_good, window, lambda o: 1.0) /
            slice_median(good, window, lambda o: 1.0), "ratio"),
        "loadgen.cpu_share": (untraced[3] / elapsed, "fraction"),
        "cgpad.cpu_cores": (untraced[4] / elapsed, "cores"),
    })
    replay = subprocess.run(
        [tool, "replay", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(max(1.0, args.seconds / 4))], stdout=subprocess.PIPE)
    if replay.returncode != 0:
        problems.append("in-process replay failed a drift guard")
    units = {"replay.coverage_ratio": "ratio", "replay.compile_ratio": "ratio",
             "kernels.workload_kib": "KiB", "replay.response_kib": "KiB",
             "interp.ns_per_instr": "ns", "sim.ns_per_cycle_threaded": "ns",
             "sim.ns_per_cycle_interp": "ns"}
    lines = replay.stdout.decode().strip().splitlines()
    for name, value in (json.loads(lines[-1]) if lines else {}).items():
        metrics[name] = (value, units.get(name, "us" if name.endswith("_us")
                                          else "count"))
    return metrics, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    # Any integer; the job-stream generator takes it modulo 2^64.
    parser.add_argument("--seed", type=lambda text: int(text) % 2 ** 64,
                        required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cgpad, tool = build()
    workers = os.cpu_count() or 1
    meta = metadata(args)
    # A traced run splits its time between an untraced and a traced
    # window (their ratio is trace.overhead_ratio) and the replay.
    window = args.seconds / 2 if args.trace else args.seconds
    count = int(FRAMES_PER_SECOND[args.workload] * window) + 1000
    stream = ["frames", "--workload", args.workload, "--seed", args.seed,
              "--count", count]
    frames = tool_lines(tool, *stream)
    # A traced run traces the warm set too: its compiles are the only ones
    # phase.compile_us sees on workloads whose window never compiles.
    warm = tool_lines(tool, "warm", "--workload", args.workload,
                      *(["--trace"] if args.trace else []))

    setup_times, setup_misses = [], 0
    daemon = None
    try:
        for attempt in range(SETUPS):
            if daemon is not None:
                daemon.shutdown()
            daemon, seconds, misses, warmed = set_up(cgpad, warm, workers,
                                                     str(attempt))
            setup_times.append(seconds)
            setup_misses += misses
        stats = [daemon.server_stats()]
        untraced = closed_loop(daemon, frames, workers, window, DEADLINE_S)
        stats.append(daemon.server_stats())
        if args.trace:
            traced = closed_loop(daemon, tool_lines(tool, *stream, "--trace"),
                                 workers, window, DEADLINE_S)
        rss_mib = daemon.peak_rss_mib()
    finally:
        if daemon is not None:
            daemon.shutdown()

    outcomes, elapsed, late, gen_cpu, daemon_cpu = untraced
    everything = outcomes + (traced[0] if args.trace else [])
    problems = ["job %d: %s" % (o.index, o.problem)
                for o in everything if o.failed and o.problem != "deadline miss"]
    problems += check_outputs(args.workload, frames, outcomes, tool, args.seed)
    if gen_cpu / elapsed > MAX_GENERATOR_CPU_SHARE:
        problems.append("load generator used %.2f of a core: it, not cgpad, "
                        "is the bottleneck" % (gen_cpu / elapsed))

    good = [o for o in outcomes if not o.failed]
    p50, tail, tail_q, samples = latency_stats(outcomes, window)
    meta.update({"samples": samples, "tail_percentile": tail_q,
                 "slices": SLICES,
                 "window_s": round(elapsed, 3), "late_responses": late,
                 "setup_s_each": [round(t, 4) for t in setup_times],
                 "setup_deadline_misses": setup_misses,
                 "generator_cpu_share": round(gen_cpu / elapsed, 3),
                 "cgpad_cpu_cores": round(daemon_cpu / elapsed, 3)})
    print("# run " + json.dumps(meta, sort_keys=True))

    if args.trace:
        metrics, replay_problems = per_layer_metrics(
            args, tool, window, untraced, traced, warmed, stats, setup_misses)
        problems += replay_problems
    else:
        metrics = {
            "jobs_per_s": (slice_median(good, window, lambda o: 1.0), "jobs/s"),
            "sim_mcycles_per_s": (slice_median(good, window,
                                               lambda o: o.doc["cycles"]) / 1e6,
                                  "Mcycles/s"),
            "latency_p50_ms": (p50, "ms"),
            "latency_p99_ms": (tail, "ms"),
            "success_ratio": (len(good) / len(outcomes), "fraction"),
            "setup_s": (statistics.median(setup_times), "s"),
            "rss_peak_mib": (rss_mib, "MiB"),
        }

    for problem in problems:
        print("cgpadbench: output check failed: " + problem, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print("%-32s %14.4f %s" % (name, value, unit))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(everything),
        "failed": sum(o.failed for o in everything),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        print("cgpadbench: %s" % error, file=sys.stderr)
        sys.exit(1)
