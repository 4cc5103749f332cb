"""Shared plumbing: the checkout, child processes, statistics, output."""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: A timed pass never starts a round that would end past this many times
#: its ``--seconds`` of wall time (however slow the machine or program).
WALL_CAP = 2.0
#: The calibration spin: this many steps of a fixed integer recurrence ...
CALIBRATION_STEPS = 100_000
#: ... which takes this long at the reference speed times are scaled to.
CALIBRATION_REFERENCE_S = 0.020


class Context:
    """One benchmark run: where the checkout is and what to measure."""

    def __init__(self, root: str, seed: int, seconds: float, trace: bool, workload: str):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.src = os.path.join(root, "src")
        self.workdir = os.path.join(root, ".perfbench_work", "%s-%d" % (workload, os.getpid()))
        os.makedirs(self.workdir, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = self.src
        self.env["TMPDIR"] = self.workdir
        self.notes: list = []
        #: CPUs the calibration spins on (see :class:`Calibration`).
        self.cpus = sorted(os.sched_getaffinity(0))
        self._affinity = set(self.cpus)

    def pin(self) -> None:
        """Keep this process, and the children it starts, on one CPU.

        The two CPUs of a small shared machine often run at different
        speeds for seconds at a time; on one CPU the calibration spin sees
        the speed the measured work gets.  Only for workloads that run one
        thing at a time.
        """
        cpu = self.cpus[-1]
        os.sched_setaffinity(0, {cpu})
        self.cpus = [cpu]

    def note(self, text: str) -> None:
        """A line for the human-readable summary (stdout, before the JSON)."""
        self.notes.append(text)

    def close(self) -> None:
        os.sched_setaffinity(0, self._affinity)
        shutil.rmtree(self.workdir, ignore_errors=True)
        parent = os.path.dirname(self.workdir)
        try:
            os.rmdir(parent)
        except OSError:
            pass


def import_program(root: str):
    """Import ``repro`` from the checkout's ``src/`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit("perfbench: no program at %s/repro" % src)
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit("perfbench: imported repro from %s, not the checkout" % repro.__file__)
    return repro


class Child:
    """A finished child process: output, wall seconds, peak RSS (MiB)."""

    def __init__(self, code, stdout, stderr, seconds, rss_mb):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.seconds = seconds
        self.rss_mb = rss_mb


def run_child(argv, ctx: Context) -> Child:
    """Run ``argv`` to completion; its own ``ru_maxrss`` comes from
    ``wait4``.  Stdout is piped, stderr goes to a file in the work dir."""
    err_path = os.path.join(ctx.workdir, "stderr.txt")
    with open(err_path, "w+b") as err:
        started = time.perf_counter()
        process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err, cwd=ctx.root, env=ctx.env
        )
        try:
            stdout = process.stdout.read()
        finally:
            process.stdout.close()
            _pid, status, usage = os.wait4(process.pid, 0)
        seconds = time.perf_counter() - started
        process.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return Child(
        process.returncode, stdout.decode(), stderr.decode(errors="replace"),
        seconds, usage.ru_maxrss / 1024.0,
    )


class Calibration:
    """Interpreter speed sampled around every operation.

    A small shared machine's speed swings by tens of percent within
    seconds (other tenants), and the swings move every time alike.  A
    sample times a fixed allocation-free spin; :meth:`reference` converts
    an operation's wall seconds to seconds at the reference speed, using
    the samples just before and just after it, so the swings cancel while
    a change in the program's own speed does not.  Call :meth:`sample`
    once before the first operation and once after each.
    """

    def __init__(self, cpus) -> None:
        self.cpus = list(cpus)
        self.samples: list = []

    def sample(self) -> None:
        """One sample: the mean spin time over the calibration CPUs."""
        allowed = os.sched_getaffinity(0)
        times = []
        try:
            for cpu in self.cpus:
                if len(self.cpus) > 1:
                    os.sched_setaffinity(0, {cpu})
                times.append(_spin())
        finally:
            if len(self.cpus) > 1:
                os.sched_setaffinity(0, allowed)
        self.samples.append(sum(times) / len(times))

    def reference(self, wall: float) -> float:
        """``wall`` seconds of the operation between the last two samples,
        in reference seconds."""
        speed = (self.samples[-1] + self.samples[-2]) / 2.0
        return wall * CALIBRATION_REFERENCE_S / speed


def _spin() -> float:
    started = time.perf_counter()
    accumulator = 0
    for i in range(CALIBRATION_STEPS):
        accumulator = (accumulator * 1103515245 + i) % 2147483648
    return time.perf_counter() - started


def run_rounds(seconds, run_round, nominal, rounds=None) -> int:
    """Call ``run_round(index)`` for whole rounds; returns how many ran.

    Without ``rounds``, ``seconds`` fixes the work: as many rounds as make
    ``seconds`` at ``nominal`` reference seconds per round (a round's time
    on the commit that added the benchmark), so every run of the same
    ``--seconds`` measures the same number of operations.  A round that
    would end past ``WALL_CAP`` times ``seconds`` of wall time is not
    started, however slow the machine or the program.
    """
    started = time.perf_counter()
    index = 0
    planned = rounds or max(1, round(seconds / nominal))
    while True:
        round_started = time.perf_counter()
        run_round(index)
        index += 1
        if index >= planned:
            return index
        now = time.perf_counter()
        if rounds is None and now - started + (now - round_started) > WALL_CAP * seconds:
            return index


def scale(records) -> float:
    """Reference seconds per wall second over a pass's records."""
    return sum(r["ref"] for r in records) / sum(r["seconds"] for r in records)


def measure_setup(code: str, ctx: Context) -> float:
    """Median reference seconds of ``SETUP_REPEATS`` fresh interpreters
    running ``code``."""
    wall, reference, calibration = [], [], Calibration(ctx.cpus)
    calibration.sample()
    for _ in range(SETUP_REPEATS):
        child = run_child([sys.executable, "-c", code], ctx)
        if child.code != 0:
            raise RuntimeError("set-up failed: %s" % child.stderr[-2000:])
        calibration.sample()
        wall.append(child.seconds)
        reference.append(calibration.reference(child.seconds))
    ctx.note("setup: median %.4fs wall" % statistics.median(wall))
    return statistics.median(reference)


def import_times(module: str, ctx: Context, repeats: int = 3) -> tuple:
    """``(total import seconds, numpy's cumulative import seconds)`` of a
    fresh ``import <module>``, medians over ``python -X importtime`` runs."""
    totals, numpys = [], []
    for _ in range(repeats):
        child = run_child([sys.executable, "-X", "importtime", "-c", "import " + module], ctx)
        total = numpy = 0
        for line in child.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            fields = line.split(":", 1)[1].split("|")
            self_us, cumulative_us, name = int(fields[0]), int(fields[1]), fields[2]
            total += self_us
            if name.strip() == "numpy":
                numpy = cumulative_us
        totals.append(total / 1e6)
        numpys.append(numpy / 1e6)
    return statistics.median(totals), statistics.median(numpys)


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- statistics ----------------------------------------------------------


def nearest_rank(values, percentile: int):
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile * len(ordered) / 100.0))
    return ordered[rank - 1]


def tail(values) -> tuple:
    """``(value, percentile, samples beyond)`` for the highest nearest-rank
    percentile with at least ten samples beyond it (the maximum when
    fewer than eleven samples exist)."""
    n = len(values)
    for percentile in range(99, 0, -1):
        rank = max(1, math.ceil(percentile * n / 100.0))
        if n - rank >= 10:
            return nearest_rank(values, percentile), percentile, n - rank
    return max(values), 100, 0


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def throughput(records, key: str, seconds_key: str = "ref") -> float:
    """Median over groups (rounds, invocations) of operations per second;
    every group has the same composition, so a burst of machine noise
    moves one group, not the result."""
    groups: dict = {}
    for record in records:
        ops, seconds = groups.get(record[key], (0, 0.0))
        groups[record[key]] = (ops + record.get("ops", 1), seconds + record[seconds_key])
    return statistics.median(ops / seconds for ops, seconds in groups.values())


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_metrics(records, key: str, ctx: Context, what: str) -> dict:
    """``ops_per_s`` and the two latency metrics of one timed pass, in
    reference seconds; the wall-clock figures go to the notes."""
    latencies = [record["ref"] for record in records]
    value, percentile, beyond = tail(latencies)
    wall = [record["seconds"] for record in records]
    ctx.note(
        "latency_s_tail is p%d of %d %s (%d beyond it)"
        % (percentile, len(latencies), what, beyond)
    )
    ctx.note(
        "wall clock: ops_per_s %.4f, latency_s_p50 %.4fs, latency_s_tail %.4fs; "
        "%.3f reference s per wall s"
        % (throughput(records, key, "seconds"), statistics.median(wall),
           tail(wall)[0], scale(records))
    )
    return {
        "ops_per_s": metric(throughput(records, key), "1/s"),
        "latency_s_p50": metric(statistics.median(latencies), "s"),
        "latency_s_tail": metric(value, "s"),
    }
