"""Span tracing of the bruhatb layers from outside the package.

A `Tracer` replaces library functions at their module attributes with
wrappers that record one span per call (name, start, end, parent, thread),
and puts every original back on exit.  Names a module imported from another
module are patched too (`bruhatb.orders.enumerate_B`, `bruhatb.verify.
class_members`, ...), so calls that cross a module boundary are caught.
Parents come from a per-thread stack; tasks handed to the verification
thread pool carry the span that created them as their parent.

Spans stay in memory until `write_spans`; `summarize` turns them into
per-name and per-layer figures.  A layer is the span name up to its first
dot (`core`, `orders`, `verify`, `weyl`, `cli`).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import Counter, defaultdict

class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (sid, name, start, end, parent, thread, nested)
        self.counters: Counter = Counter()
        self.paused = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, amount=1) -> None:
        with self._lock:
            self.counters[key] += amount

    def spanned(self, name: str, fn, after=None, parent=None):
        """`fn` wrapped to record a span per call.

        `after(tracer, args, kwargs, result, seconds)` runs once the span has
        closed; `parent` overrides the per-thread stack for a root call.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            par = stack[-1][0] if stack else parent
            nested = any(n == name for _, n in stack)
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, par,
                                     threading.get_ident(), nested))
            if after is not None:
                after(tracer, args, kwargs, result, end - start)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """`fn` wrapped to count calls only (for very cheap, very hot calls)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.paused:
                tracer.add(name + ".calls")
            return fn(*args, **kwargs)

        return wrapper

    def current(self):
        stack = self._stack()
        return stack[-1][0] if stack else None

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, plan):
        """Apply `plan(tracer)` (which calls `patch`), undo it on exit."""
        try:
            plan(self)
            yield self
        finally:
            self.restore()

    @contextlib.contextmanager
    def pause(self):
        """Let calls through unrecorded, e.g. while the benchmark checks results."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans, wall_start: float, wall_end: float, main_thread: int) -> dict:
    """Per-name and per-layer figures from recorded spans.

    A span's self time is its duration minus the union of its children's
    intervals (children may run on pool threads).  The benchmark's own time
    is the part of the main thread's wall time that no root span covers, so
    self times plus `bench_self_s` add up to the wall time, plus whatever
    pool tasks overlapped each other (`overlap_s`).
    """
    children = defaultdict(list)
    for sp in spans:
        if sp[4] is not None:
            children[sp[4]].append((sp[2], sp[3]))
    per_name: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    layer_self: Counter = Counter()
    overlap = 0.0
    roots = []
    for sid, name, start, end, parent, thread, nested in spans:
        kids = children.get(sid, ())
        covered = _covered(kids)
        overlap += sum(e - s for s, e in kids) - covered
        self_s = (end - start) - covered
        stats = per_name[name]
        stats["calls"] += 1
        stats["self_s"] += self_s
        if not nested:
            stats["s"] += end - start
        layer_self[name.split(".", 1)[0]] += self_s
        if parent is None and thread == main_thread:
            roots.append((start, end))
    wall = wall_end - wall_start
    bench_self = wall - _covered(roots)
    accounted = sum(layer_self.values()) + bench_self - overlap
    return {
        "names": dict(per_name),
        "layer_self": dict(layer_self),
        "wall_s": wall,
        "bench_self_s": bench_self,
        "overlap_s": overlap,
        "accounted_ratio": accounted / wall if wall > 0 else 0.0,
    }


def write_spans(path, spans, origin: float) -> None:
    """CSV: id, name, start and end in seconds from `origin`, parent, thread."""
    with open(path, "w") as fh:
        fh.write("id,name,start_s,end_s,parent,thread\n")
        for sid, name, start, end, parent, thread, _nested in spans:
            par = "" if parent is None else parent
            fh.write(f"{sid},{name},{start - origin:.9f},{end - origin:.9f},"
                     f"{par},{thread}\n")


# ---------------------------------------------------------------------------
# what to wrap in bruhatb
# ---------------------------------------------------------------------------

def _add_len(key):
    def after(tracer, args, kwargs, result, seconds):
        tracer.add(key, len(result))
    return after


def _after_build(tracer, args, kwargs, poset, seconds):
    tracer.add("orders.classes", len(poset.nodes))
    tracer.add("orders.edges", len(poset.edges))


def _after_case(tracer, args, kwargs, report, seconds):
    tracer.add("verify.extensions", report.extensions)
    tracer.add("verify.acyclic", report.acyclic)
    tracer.add("verify.orientations", report.orientations)


def _after_suite(tracer, args, kwargs, reports, seconds):
    jobs = args[2] if len(args) > 2 else kwargs.get("jobs", 1)
    tracer.add("verify.checks", len(reports))
    tracer.add("verify.checks_failed", sum(not r["result"] for r in reports))
    tracer.add("verify.jobs_wall_s", jobs * seconds)


# (span name, function, modules holding it under that name, after-hook)
SPANS = (
    ("core.ground_set", "enumerate_A", ("core", "orders"), None),
    ("core.ground_set", "enumerate_B", ("core", "orders", "verify"), None),
    ("core.packet_B", "packet_B", ("core", "orders", "verify"), None),
    ("core.text", "format_element", ("core", "orders", "verify", "cli"), None),
    ("core.text", "parse_element", ("core", "orders"), None),
    ("orders.is_admissible", "is_admissible", ("orders",), None),
    ("orders.inversion_set", "inversion_set", ("orders", "verify", "weyl"), None),
    ("orders.flip_candidates", "flip_candidates", ("orders", "verify", "weyl"), None),
    ("orders.packet_flip", "packet_flip", ("orders", "weyl"), None),
    ("orders.canonical_form", "canonical_form", ("orders",), None),
    ("orders.class_members", "class_members", ("orders", "verify"),
     _add_len("orders.class_members.members")),
    ("orders.class_flip_candidates", "class_flip_candidates", ("orders",), None),
    ("orders.build_poset", "build_poset", ("orders", "cli", "weyl"), _after_build),
    ("orders.check_extrema", "check_extrema", ("orders", "cli"), None),
    ("orders.inv_injectivity", "inv_injectivity_check", ("orders",), None),
    ("orders.chains_bijection", "chains_bijection_check", ("orders",), None),
    ("orders.maximal_chains", "maximal_chains", ("orders", "cli"), _add_len("orders.chains")),
    ("orders.enumerate_admissible", "enumerate_admissible", ("orders", "verify", "weyl"),
     _add_len("orders.enumerate_admissible.orderings")),
    ("orders.export", "poset_to_json", ("orders", "cli"), _add_len("orders.export.bytes")),
    ("orders.export", "poset_to_dot", ("orders", "cli"), _add_len("orders.export.bytes")),
    ("orders.export", "poset_to_json_obj", ("orders",), None),
    ("orders.export", "poset_from_json_obj", ("orders",), None),
    ("orders.export", "poset_comparable", ("orders",), None),
    ("verify.crosses", "crosses", ("verify",), None),
    ("verify.crosses_oracle", "crosses_oracle", ("verify",), None),
    ("verify.blocks", "blocks", ("verify",), None),
    ("verify.escape_witness", "interval_escape_witness", ("verify",), None),
    ("verify.case_report", "case_report", ("verify",), _after_case),
    ("verify.run_suite", "run_suite", ("verify", "cli"), _after_suite),
    ("weyl.chain_to_word", "chain_to_word", ("weyl",), None),
    ("weyl.iso_check", "iso_check", ("weyl",), None),
    ("weyl.reduced_words", "reduced_words_brute", ("weyl",), None),
    ("cli.main", "main", ("cli",), None),
)


def bruhatb_plan(tracer: Tracer) -> None:
    """Wrap the public functions of every bruhatb layer (see SPANS)."""
    import importlib
    from bruhatb import orders, verify, weyl

    for name, attr, modules, after in SPANS:
        for mod in modules:
            owner = importlib.import_module(f"bruhatb.{mod}")
            original = owner.__dict__[attr]
            tracer.patch(owner, attr, tracer.spanned(name, original, after))
    for mod in ("core", "verify"):
        owner = importlib.import_module(f"bruhatb.{mod}")
        tracer.patch(owner, "normalize_orbit",
                     tracer.counted("core.normalize_orbit", owner.normalize_orbit))
    tracer.patch(orders.TotalOrder, "__post_init__",
                 tracer.spanned("orders.TotalOrder", orders.TotalOrder.__post_init__))
    for method in ("is_reduced", "evaluate"):
        tracer.patch(weyl.ReducedWord, method,
                     tracer.spanned("weyl.word_check", weyl.ReducedWord.__dict__[method]))

    suite_tasks = verify._suite_tasks

    def traced_tasks(*args, **kwargs):
        parent = tracer.current()
        return [tracer.spanned("verify.task", _cpu_timed(tracer, task), parent=parent)
                for task in suite_tasks(*args, **kwargs)]

    tracer.patch(verify, "_suite_tasks", traced_tasks)


def _cpu_timed(tracer: Tracer, task):
    """A suite task that adds its thread CPU time to verify.task_cpu_s."""
    def run():
        start = time.thread_time()
        try:
            return task()
        finally:
            tracer.add("verify.task_cpu_s", time.thread_time() - start)
    return run
