"""Workload-independent parts of the benchmark.

The case loop with its per-case wall-clock budget, the span tracer used by
the traced run, the seeded case plan, the reference loop that scales times
to a fixed machine speed, summary statistics and the record of the machine
a result was taken on.  Nothing here imports ``strata_kit``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import time

#: samples the reported tail percentile leaves above it
TAIL_ABOVE = 10

#: iterations of the reference loop, and its time on the baseline machine
#: when no other tenant slows it; reported times are scaled to that speed
REF_LOOPS = 2000
REF_NOMINAL_S = 0.0005
REF_WINDOW = 9

#: number of leading plan keys hashed into the input digest
PLAN_DIGEST_KEYS = 1000


class CaseTimeout(Exception):
    """A case ran past its wall-clock budget."""


class CheckFailed(Exception):
    """A benchmark-side correctness check on a program output failed."""

    def __init__(self, module: str, what: str):
        super().__init__(f"{module}: {what}")
        self.module = module


def check(cond, module: str, what: str) -> None:
    if not cond:
        raise CheckFailed(module, what)


def digest(obj) -> str:
    """Short sha256 of a canonical JSON encoding."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def bytes_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# ---------------------------------------------------------------------------
# calls and spans
# ---------------------------------------------------------------------------

def plain_call(name, fn, *args, **kwargs):
    """The untraced call path: no clock reads, no bookkeeping."""
    return fn(*args, **kwargs)


class Tracer:
    """In-memory spans around the benchmark's calls into the program.

    A span is (name, start, end, parent index, case id).  Spans nest
    strictly (one thread), so a span's self time is its duration minus the
    durations of its direct children.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.case_id = None
        self.raised_in = None

    def begin_case(self, case_id):
        self.case_id = case_id
        self.raised_in = None

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            if self.raised_in is None:
                self.raised_in = name
            raise
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.case_id)

    def add(self, name, t0, t1, parent=None):
        """Record a span measured elsewhere (a child process); returns its
        index so later spans can name it as their parent."""
        self.spans.append((name, t0, t1, parent, self.case_id))
        return len(self.spans) - 1

    def layer_totals(self):
        """{name: [calls, self seconds]}."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            acc = out.setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += (t1 - t0) - child[i]
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "case"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# the case plan
# ---------------------------------------------------------------------------

def make_plan(classes, variants: int, seed: int, shuffle_rounds: bool):
    """Endless seeded sequence of case keys "<class>/<variant>".

    Each round runs one case of every class.  Each class deals its variants
    from a seeded shuffled deck, so every variant is used once before any
    repeats and every run covers nearly the same case population: this
    keeps throughput steady across seeds although per-case cost is heavy
    tailed.
    """
    rng = random.Random(f"plan:{seed}")
    decks = {c: [] for c in classes}
    order = list(classes)
    while True:
        if shuffle_rounds:
            rng.shuffle(order)
        for c in order:
            if not decks[c]:
                decks[c] = list(range(variants))
                rng.shuffle(decks[c])
            yield f"{c}/{decks[c].pop()}"


# ---------------------------------------------------------------------------
# the case loop
# ---------------------------------------------------------------------------

def on_alarm(signum, frame):
    raise CaseTimeout("case ran past its budget")


class CaseResult:
    __slots__ = ("key", "ok", "seconds", "digest", "module", "error", "ref")

    def __init__(self, key, ok, seconds, digest_, module=None, error=None):
        self.key = key
        self.ok = ok
        self.seconds = seconds
        self.digest = digest_
        self.module = module
        self.error = error
        self.ref = None     # seconds of the reference loop run after it


def run_cases(keys, execute, golden, budget_s, *, deadline=None, call=plain_call,
              tracer=None, alarm=True, reference=False):
    """Run cases in plan order until ``keys`` or the deadline runs out.

    ``execute(key, call)`` returns the case's canonical result record (or,
    with ``alarm=False``, enforces the budget itself and raises
    CaseTimeout).  A case fails when it raises, overruns ``budget_s``,
    fails a check, or its record digest differs from ``golden[key]``.
    With ``reference``, the reference loop runs after every case.
    Returns (results, wall seconds of the loop).
    """
    results = []
    old = signal.signal(signal.SIGALRM, on_alarm) if alarm else None
    start = time.perf_counter()
    try:
        for key in keys:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if tracer is not None:
                tracer.begin_case(key)
            t0 = time.perf_counter()
            try:
                if alarm:
                    signal.setitimer(signal.ITIMER_REAL, budget_s)
                try:
                    rec = execute(key, call)
                finally:
                    if alarm:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                dt = time.perf_counter() - t0
                d = rec if isinstance(rec, str) else digest(rec)
                want = golden.get(key)
                if want == d:
                    results.append(CaseResult(key, True, dt, d))
                else:
                    results.append(CaseResult(
                        key, False, dt, d, "digest",
                        f"digest {d} != recorded {want}"))
            except CaseTimeout as exc:
                results.append(CaseResult(key, False, time.perf_counter() - t0,
                                          None, _blame(tracer, exc), str(exc)))
            except CheckFailed as exc:
                results.append(CaseResult(key, False, time.perf_counter() - t0,
                                          None, exc.module, str(exc)))
            except Exception as exc:  # a program error fails the case only
                results.append(CaseResult(key, False, time.perf_counter() - t0,
                                          None, _blame(tracer, exc),
                                          f"{type(exc).__name__}: {exc}"))
            if reference:
                results[-1].ref = reference_seconds()
    finally:
        if alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
    return results, time.perf_counter() - start


def _blame(tracer, exc):
    """Module a failure is charged to: the innermost traced call that the
    exception passed through, else the library module that raised it."""
    if tracer is not None and tracer.raised_in is not None:
        return tracer.raised_in.split(".")[0]
    tb = exc.__traceback__
    module = "bench"
    while tb is not None:
        name = tb.tb_frame.f_globals.get("__name__", "")
        if name.startswith("strata_kit."):
            module = name.split(".")[1]
            break
        tb = tb.tb_next
    return module


# ---------------------------------------------------------------------------
# statistics and the environment record
# ---------------------------------------------------------------------------

def tail(samples):
    """(value, percentile): the highest percentile that leaves at least
    TAIL_ABOVE samples above it, by nearest rank."""
    xs = sorted(samples)
    n = len(xs)
    rank = max(1, n - TAIL_ABOVE)
    return xs[rank - 1], 100 * rank / n


def reference_seconds():
    """Seconds for one run of a fixed pure-Python loop of dict and tuple
    work, the kind the program does.  Timed next to each measurement, it
    tracks how fast the machine runs Python at that moment."""
    t0 = time.perf_counter()
    d = {}
    s = 0
    for i in range(REF_LOOPS):
        k = (i, i * 7 % 13)
        d[k] = d.get(k, 0) + 1
        s += len(d) ^ i
    return time.perf_counter() - t0


def at_reference_speed(seconds, ref_seconds):
    """``seconds`` scaled to a machine on which the reference loop takes
    REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S / ref_seconds


def case_times(results):
    """{case key: median over its runs of the run time at reference speed}.

    A run is scaled by the median reference time of the REF_WINDOW runs
    centred on it: one reference run is short and noisy, and the speed of
    the machine changes over seconds, not milliseconds.
    """
    refs = [r.ref for r in results]
    half = REF_WINDOW // 2
    runs = {}
    for i, r in enumerate(results):
        ref = statistics.median(refs[max(0, i - half):i + half + 1])
        runs.setdefault(r.key, []).append(at_reference_speed(r.seconds, ref))
    return {key: statistics.median(ts) for key, ts in runs.items()}


def median(samples):
    return statistics.median(samples)


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root):
    """HEAD of a git checkout, read from files; None outside one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    parts = line.split()
                    if len(parts) == 2 and parts[1] == ref:
                        return parts[0]
    except OSError:
        pass
    return None


def environment(root):
    return {"nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "git_commit": _git_commit(root)}
