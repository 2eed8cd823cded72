"""Span tracer for the benchmark's traced pass.

The tracer replaces public functions of the ``reslab`` modules by wrappers,
at the module attribute where their callers look them up, so no file of the
program changes.  Each wrapped call records a span (id, name, task, parent,
start, end) in memory; ``restore`` puts every original object back.

Hot leaf functions are wrapped with a counter only, because a span per call
would cost more than the call.  Work counts that the program does not
report are computed at the wrapped boundary from argument and result sizes
(for example 8/3 n^3 flops per LU of an n x n matrix).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict

# Modules whose ``__all__`` functions get spans (cli: its entry point only).
MODULES = ("schottky", "thermo", "transfer", "zeros", "abelian", "congruence",
           "explicit_formula", "cayley", "cli", "report")

# Names a module imported with ``from ._accel import y``: the caller looks
# them up in its own namespace, so they are wrapped there.
EXTRA_NAMES = {
    "cayley": ("cheeger_exhaustive",),
    "congruence": ("conjugacy_partition_mod_p",),
    "transfer": ("word_products",),
}

# Called so often that a span per call would cost more than the call.
COUNT_ONLY = {"congruence.classify", "report.fmt_float"}

# Callers of power_classes that then examine every pair of its rows.
PAIR_SUMMERS = {"congruence.conj1_check", "congruence.character_average",
                "congruence.abelian_average_crosscheck"}


def _matrix_dim(m) -> int:
    return int(getattr(m, "mat", m).shape[0])


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans and counters of one traced pass: install, run, restore."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, task, parent, start, end)
        self.counts: dict[str, float] = defaultdict(int)
        self.task = -1
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.main_thread()
        self._main_stack: list[tuple[int, str]] = []
        self._patched: list[tuple] = []  # (module, name, original)

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list):
        if stack:
            return stack[-1]
        if self._main_stack:
            # a pool thread started by a traced call: that call caused it
            return self._main_stack[-1]
        return None

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def _thread_dets(self) -> int:
        return getattr(self._local, "dets", 0)

    def _span_wrapper(self, qualname: str, fn):
        tracer = self
        hook = _HOOKS.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append((sid, qualname))
            tracer.add(qualname + ".calls")
            dets_before = tracer._thread_dets()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, qualname, tracer.task,
                                     parent[0] if parent else None, start, end))
            if hook is not None:
                replaced = hook(tracer, args, kwargs, result,
                                tracer._thread_dets() - dets_before,
                                parent[1] if parent else None)
                if replaced is not None:
                    return replaced
            return result

        return wrapper

    def _count_wrapper(self, qualname: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.add(qualname + ".calls")
            return fn(*args, **kwargs)

        return wrapper

    def wrap_det(self, det):
        """Count calls of a closure returned by make_det, and the calls
        that repeat an s this closure was asked for before."""
        tracer = self
        seen: set = set()

        @functools.wraps(det)
        def counted(s):
            key = complex(s)
            with tracer._lock:
                tracer.counts["zeros.det_evals"] += 1
                if key in seen:
                    tracer.counts["zeros.det_repeats"] += 1
                else:
                    seen.add(key)
            tracer._local.dets = tracer._thread_dets() + 1
            return det(s)

        return counted

    # -- install / restore ------------------------------------------------

    def install(self) -> None:
        for modname in MODULES:
            mod = importlib.import_module("reslab." + modname)
            if modname == "cli":
                names = ["main"]
            else:
                names = [n for n in getattr(mod, "__all__", ())
                         if inspect.isfunction(getattr(mod, n, None))]
                names += EXTRA_NAMES.get(modname, ())
            for name in names:
                original = getattr(mod, name)
                qualname = f"{modname}.{name}"
                if qualname in COUNT_ONLY:
                    wrapped = self._count_wrapper(qualname, original)
                else:
                    wrapped = self._span_wrapper(qualname, original)
                self._patched.append((mod, name, original))
                setattr(mod, name, wrapped)

    def restore(self) -> None:
        while self._patched:
            mod, name, original = self._patched.pop()
            setattr(mod, name, original)

    @property
    def patched(self) -> list[tuple]:
        return list(self._patched)

    # -- aggregation ------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: the sum of each span's duration minus the part of
        its interval that child spans cover (pool-thread children overlap,
        so the union of their intervals is taken)."""
        children: dict = defaultdict(list)
        for _, _, _, parent, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, float] = defaultdict(float)
        for sid, name, _, _, start, end in self.spans:
            covered = 0.0
            lo_run = hi_run = None
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, start), min(hi, end)
                if hi <= lo:
                    continue
                if hi_run is not None and lo <= hi_run:
                    hi_run = max(hi_run, hi)
                    continue
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            if hi_run is not None:
                covered += hi_run - lo_run
            out[name] += (end - start) - covered
        return dict(out)

    def span_records(self) -> list[dict]:
        return [{"id": sid, "name": name, "task": task, "parent": parent,
                 "start": start, "end": end}
                for sid, name, task, parent, start, end in self.spans]


# -- work counts computed at a wrapped boundary -------------------------------

def _hook_make_det(tracer, args, kwargs, result, dets, parent):
    return tracer.wrap_det(result)


def _hook_fredholm(tracer, args, kwargs, result, dets, parent):
    n = _matrix_dim(_arg(args, kwargs, 0, "M"))
    tracer.add("transfer.fredholm_det.flops", 8.0 / 3.0 * n ** 3)


def _hook_blocks_to_matrix(tracer, args, kwargs, result, dets, parent):
    tracer.add("transfer.matrix_bytes", 16 * result.shape[0] ** 2)


def _hook_refine(tracer, args, kwargs, result, dets, parent):
    tracer.add("zeros.refine_zero.converged", 1 if result[2] else 0)
    tracer.add("zeros.refine_zero.dets", dets)


def _hook_power_classes(tracer, args, kwargs, result, dets, parent):
    if parent in PAIR_SUMMERS:
        tracer.add("congruence.pairs_examined", len(result) ** 2)


def _hook_cheeger(tracer, args, kwargs, result, dets, parent):
    tracer.add("cayley.cheeger_exhaustive.subsets",
               2 ** _matrix_dim(_arg(args, kwargs, 0, "adj")))


def _hook_atomic_write(tracer, args, kwargs, result, dets, parent):
    tracer.add("report.bytes_written",
               len(_arg(args, kwargs, 1, "text").encode()))


_HOOKS = {
    "zeros.make_det": _hook_make_det,
    "transfer.fredholm_det": _hook_fredholm,
    "transfer.blocks_to_matrix": _hook_blocks_to_matrix,
    "zeros.refine_zero": _hook_refine,
    "congruence.power_classes": _hook_power_classes,
    "cayley.cheeger_exhaustive": _hook_cheeger,
    "report.atomic_write": _hook_atomic_write,
}
