#!/usr/bin/env python3
"""Negative controls for the cgpad benchmark's verdicts.

Run from the repository root (builds cgpad into .bench_build/ if needed):

    python3 cgpadbench/test_bench.py

Each test drives a real cgpad over its Unix socket through run.py's own
client code and checks that a bad answer is counted as a failure, so the
live service defects the benchmark reports stay visible:
  * cgpad accepts kmeans with flow p2, which it cannot pipeline, and
    answers ok:true, correct:false;
  * a lost wakeup can leave a job queued until some later enqueue, which
    the benchmark can only see as a deadline miss;
  * two compiles that print the same IR share one plan-cache entry, so
    the later job is answered with the earlier compile's remarks digest,
    which the byte-for-byte check against serve::runJobDirect flags.
"""

import os
import subprocess
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

CGPAD = TOOL = None


def job(job_id, **fields):
    doc = {"schema": "cgpa.job.v1", "id": job_id}
    doc.update(fields)
    return (run.json.dumps(doc, separators=(",", ":")) + "\n").encode()


class UnsupportedP2(unittest.TestCase):
    def test_kmeans_p2_is_counted_failed(self):
        frames = [job(1, kernel="kmeans", flow="p2"), job(2, kernel="em3d", flow="p2")]
        kmeans, em3d = (run.Outcome(i, 0.0, 0.0, line)
                        for i, line in enumerate(batch(frames)))
        self.assertTrue(kmeans.failed,
                        "kmeans/p2 must count as failed: %s" % kmeans.line[:200])
        self.assertFalse(em3d.failed, em3d.problem)


class DeadlineMiss(unittest.TestCase):
    """Against a fake peer that answers every frame 50 ms late, so the
    verdicts do not depend on cgpad's own timing."""

    def test_miss_is_failed_and_its_late_answer_discarded(self):
        client, peer = run.socket.socketpair()

        def answer():
            conn = run.Connection(peer)
            while True:
                try:
                    line = conn.read_line(time.perf_counter() + 5.0)
                except run.BenchError:  # the client hung up
                    return
                if line is None:
                    return
                time.sleep(0.05)
                peer.sendall(b'{"schema":"cgpa.jobresult.v1","id":%d,"ok":true,'
                             b'"correct":true,"cycles":1}\n'
                             % run.json.loads(line)["id"])

        server = run.threading.Thread(target=answer)
        server.start()
        try:
            conn, late = run.Connection(client), [0]
            latency, line = run.call(conn, job(1), 1, 0.001, late)
            missed = run.Outcome(1, 0.0, latency, line)
            self.assertTrue(missed.failed)
            self.assertEqual(missed.problem, "deadline miss")
            # The next job's answer is matched by id; the first job's
            # answer, which arrives first, is discarded and counted.
            latency, line = run.call(conn, job(2), 2, 5.0, late)
            answered = run.Outcome(2, 0.0, latency, line)
            self.assertFalse(answered.failed, answered.problem)
            self.assertEqual(run.response_id(line), 2)
            self.assertEqual(late[0], 1)
        finally:
            client.close()
            server.join()
            peer.close()


class LostWakeup(unittest.TestCase):
    """One connection, one job in flight, one worker: every job that stalls
    behind a lost wakeup can only end as a deadline miss."""

    def test_closed_loop_counts_stalls_and_never_hangs(self):
        frames = [job(i, kernel="1d-gaussblur", seed=i) for i in range(1000)]
        deadline_s, seconds = 0.25, 2.0
        daemon = run.Daemon(CGPAD, 1, "test")
        try:
            start = time.perf_counter()
            outcomes, elapsed, late, _, _ = run.closed_loop(
                daemon, frames, 1, seconds, deadline_s)
            self.assertLess(time.perf_counter() - start,
                            seconds + deadline_s + 5.0)
        finally:
            daemon.shutdown()
        misses = [o for o in outcomes if o.latency is None]
        self.assertTrue(all(o.failed for o in misses))
        self.assertTrue(all(not o.failed for o in outcomes if o.latency is not None))
        # Each miss but possibly the last is answered late and discarded.
        self.assertGreaterEqual(late, len(misses) - 1)
        print("\nlost wakeup: %d of %d sequential jobs missed a %.2f s deadline"
              % (len(misses), len(outcomes), deadline_s), file=sys.stderr)


# Two cold_specs loops whose p2 and p1 compiles print the same IR.
SHARED_IR = [
    ("fuzz-spec v1 data=14583057306565844999 style=counted trip=40 wide=0 "
     "retacc=1 mul=6364136223846793005 add=12345 thresh=5 ops=store_affine", "p2"),
    ("fuzz-spec v1 data=13895240028122794425 style=counted trip=0 wide=0 "
     "retacc=1 mul=2654435761 add=1442695040888963407 thresh=5 ops=store_affine",
     "p1"),
]


def batch(frames):
    """Responses of a one-worker cgpad in ordered file mode (--in/--out),
    which answers every frame in order without a socket client waiting."""
    stem = os.path.join(run.RUN_DIR, "test-batch-%d" % os.getpid())
    with open(stem + ".in", "wb") as jobs:
        jobs.write(b"".join(frames))
    try:
        subprocess.run([CGPAD, "--workers", "1", "--in", stem + ".in",
                        "--out", stem + ".out"], check=True, timeout=120)
        with open(stem + ".out", "rb") as out:
            return out.read().splitlines()
    finally:
        for path in (stem + ".in", stem + ".out"):
            if os.path.exists(path):
                os.unlink(path)


def direct_verdict(frame, line):
    """Exit status of the byte-for-byte check on one frame/response."""
    path = os.path.join(run.RUN_DIR, "test-direct-%d.txt" % os.getpid())
    with open(path, "wb") as pairs:
        pairs.write(frame + line + b"\n")
    try:
        return subprocess.run([TOOL, "direct", "--in", path],
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
    finally:
        os.unlink(path)


class DirectCheck(unittest.TestCase):
    def test_tampered_response_is_flagged_and_cache_hit_ignored(self):
        frame = job(1, kernel="ks", workers=2)
        cold, warm = batch([frame, frame])
        self.assertIn(b'"cacheHit":true', warm)
        self.assertEqual(direct_verdict(frame, cold), 0)
        self.assertEqual(direct_verdict(frame, warm), 0)
        cycles = run.json.loads(cold)["cycles"]
        tampered = cold.replace(b'"cycles":%d' % cycles,
                                b'"cycles":%d' % (cycles + 1), 1)
        self.assertEqual(direct_verdict(frame, tampered), 1)

    def test_shared_ir_answer_is_checked_against_a_cold_compile(self):
        frames = [job(i, spec=spec, flow=flow, workers=2)
                  for i, (spec, flow) in enumerate(SHARED_IR)]
        shared = batch(frames)[1]
        cold = batch(frames[1:])[0]
        verdict = direct_verdict(frames[1], shared)
        self.assertEqual(verdict, 0 if shared == cold else 1)
        if verdict:
            print("\nplan cache: a shared-IR entry answered with another "
                  "compile's remarks digest", file=sys.stderr)


class JobStream(unittest.TestCase):
    def test_same_seed_same_frames(self):
        for workload in run.WORKLOADS:
            first = run.tool_lines(TOOL, "frames", "--workload", workload,
                                   "--seed", 7, "--count", 50)
            again = run.tool_lines(TOOL, "frames", "--workload", workload,
                                   "--seed", 7, "--count", 50)
            other = run.tool_lines(TOOL, "frames", "--workload", workload,
                                   "--seed", 8, "--count", 50)
            self.assertEqual(first, again, workload)
            self.assertNotEqual(first, other, workload)


if __name__ == "__main__":
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    CGPAD, TOOL = run.build()
    unittest.main()
