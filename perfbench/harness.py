"""Running CLI operations in process, checking them, and timing the loop."""

import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")

OK, KNOWN, WRONG = "ok", "known", "wrong"
BENCH_MODULES = ("gen", "workloads", "tracing")
TAIL_BEYOND = 10


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """(Re-)import selfsim from this checkout's src/ and the benchmark
    modules bound to it; returns (cli module, workloads module)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in list(sys.modules):
        if (name == "selfsim" or name.startswith("selfsim.")
                or name in BENCH_MODULES):
            del sys.modules[name]
    try:
        selfsim = importlib.import_module("selfsim")
    except ImportError as exc:
        raise ProgramMissing("cannot import selfsim from %s: %s" % (SRC, exc))
    where = os.path.abspath(selfsim.__file__)
    if not where.startswith(SRC + os.sep):
        raise ProgramMissing("selfsim was imported from %s, not from %s"
                             % (where, SRC))
    cli = importlib.import_module("selfsim.cli")
    return cli, importlib.import_module("workloads")


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def run_op(cli, argv):
    """One in-process CLI call: (exit code or "raise:<type>", stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:   # a crash is an outcome to check, not fatal
        code = "raise:" + type(exc).__name__
    return code, out.getvalue()


def _json(out):
    try:
        return json.loads(out)
    except ValueError:
        return None


def check(op, code, out, golden):
    """OK, KNOWN (a failure the goldens recorded at the baseline) or WRONG."""
    kind = op.expect[0]
    if kind == "exact":
        return OK if (code, out) == op.expect[1:] else WRONG
    if kind == "problems":
        expected, exact = op.expect[1], op.expect[2]
        data = _json(out) if code == 1 else None
        if not isinstance(data, dict) or data.get("valid") is not False:
            return WRONG
        problems = data.get("problems") or []
        ok = (problems == expected if exact
              else set(expected) <= set(problems))
        return OK if ok else WRONG
    want = golden.get(op.key())
    if kind == "malformed":
        if code == 2:
            return OK
        if (isinstance(code, str) and want is not None
                and str(want[0]).startswith("raise:")):
            return KNOWN
        return WRONG
    if want is None or [code, digest(out)] != want[:2]:
        return WRONG
    # Properties known by construction, checked on top of the digest.
    extra = op.expect[1]
    data = _json(out) if extra else None
    if extra == "cyc_holds" and data["conditions"]["Cyc"]["status"] != "Holds":
        return WRONG
    if extra == "verify_ok" and data["ok"] is not True:
        return WRONG
    return OK


PROBE_LOOPS = 1000
PROBE_RUNS = 3
REFERENCE_PROBE_S = 5e-5


def _probe_once():
    start = time.process_time()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i % 7
    return time.process_time() - start


def probe():
    """Median CPU time of PROBE_RUNS runs of a fixed pure-Python loop: a
    reading of how fast this host runs Python code right now."""
    return statistics.median(_probe_once() for _ in range(PROBE_RUNS))


def at_reference_speed(seconds, probe_s):
    """A CPU time rescaled to a host on which probe() takes
    REFERENCE_PROBE_S, given the probe time measured around it.

    On a shared host the speed of a CPU drifts by up to 1.7x, in phases
    from under a second to minutes, and a run cannot wait them out.  The
    probe slows down with the program, so the ratio cancels the drift; it
    is the same code in every version of selfsim, so a change in the
    program still changes the rescaled time in full.
    """
    return seconds * REFERENCE_PROBE_S / probe_s


class Clock:
    """Times calls one after another, in the process's CPU time, rescaled
    by the mean of the probes taken just before and just after each call.

    CPU time leaves out the stretches in which the host ran something else
    (up to tens of milliseconds, a few times a second on a busy host),
    which a speed probe cannot see.  selfsim runs single-threaded and
    never waits (its files sit in the page cache), so its CPU time is its
    wall time on a host of its own.  The unscaled wall time of each call
    is kept in `wall`.
    """

    def __init__(self):
        self.wall, self.cpu, self.scaled = [], [], []
        self.mark()

    def mark(self):
        """Probe afresh, after a gap in which other work ran."""
        self._before = probe()

    def call(self, fn, *args):
        wall, cpu = time.perf_counter(), time.process_time()
        result = fn(*args)
        cpu = time.process_time() - cpu
        self.wall.append(time.perf_counter() - wall)
        after = probe()
        self.cpu.append(cpu)
        self.scaled.append(at_reference_speed(cpu,
                                              (self._before + after) / 2))
        self._before = after
        return result


class Loop:
    """A closed loop with one client: each operation starts when the
    previous one has returned.  It runs whole passes, each of which runs
    every slot of the workload once.  Operations are timed by a Clock."""

    def __init__(self, cli, plan, paths, golden, rng):
        self.cli, self.plan, self.paths = cli, plan, paths
        self.golden, self.rng = golden, rng
        # The benchmark's own objects (plans, goldens, the systems it wrote)
        # share this heap with selfsim.  Frozen, they are left out of the
        # collections the program triggers, as they would be in a CLI
        # process of its own; otherwise each full collection traverses them
        # and puts a pause of milliseconds into whichever operation it hits.
        gc.collect()
        gc.freeze()
        self.clock = Clock()
        # Each slot runs its operations in turn, starting from a seeded
        # shuffle, so every run holds each operation equally often (give or
        # take one) and the seed changes the order only.
        self.turns = [rng.sample(slot, len(slot)) for slot in plan.slots]
        self.passes = 0
        self.outcomes = {OK: 0, KNOWN: 0, WRONG: 0}
        self.wrong = []
        self.tracer = None

    def next_pass(self):
        """The operations of the next pass: every slot once, each on its
        next operation in turn, in a seeded order."""
        ops = [turn[self.passes % len(turn)] for turn in self.turns]
        self.rng.shuffle(ops)
        return ops

    def run_pass(self, ops=None):
        """Run the next pass, or the given operations as one pass."""
        self.clock.mark()
        for op in self.next_pass() if ops is None else ops:
            if self.tracer is not None:
                self.tracer.op_id += 1
            argv = op.argv(self.paths[op.system])
            code, out = self.clock.call(run_op, self.cli, argv)
            verdict = check(op, code, out, self.golden)
            self.outcomes[verdict] += 1
            if verdict == WRONG and len(self.wrong) < 5:
                self.wrong.append((op.cmd, op.system, op.rest, code))
        self.passes += 1

    def run_for(self, seconds):
        """Run whole passes until the time is up and the tail has enough
        samples; returns the elapsed wall time."""
        start = time.perf_counter()
        while True:
            self.run_pass()
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and self.attempted > TAIL_BEYOND:
                return elapsed

    @property
    def attempted(self):
        return len(self.clock.scaled)

    @property
    def failed(self):
        return self.outcomes[KNOWN] + self.outcomes[WRONG]


def tail(latencies):
    """(value, percentile): the highest percentile with at least
    TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        raise ValueError("need more than %d samples for the tail, got %d"
                         % (TAIL_BEYOND, n))
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def loglog_slope(points):
    """Least-squares slope of log(y) against log(x); 0.0 when fewer than
    two points have y > 0."""
    pts = [(math.log(x), math.log(y)) for (x, y) in points if y > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(p[0] for p in pts)
    my = statistics.fmean(p[1] for p in pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx


def loop_rng(seed):
    return random.Random("%d/loop" % seed)
