"""Span tracer that times the package's layers from outside.

Every traced name is wrapped where its callers look it up: in the module
that defines it, in every package module that imported it by name, and on
its class for methods.  A span's self time is its duration minus the time of
the spans it caused, so the self times of all spans plus the time no span
claims add up to the process wall time.  Nothing here edits the package's
source; the wrappers exist only in a traced process.
"""

from __future__ import annotations

import builtins
import contextlib
import functools
import inspect
import json
import sys
import time
import types
from collections import Counter, defaultdict

PACKAGE_MODULES = ("cli", "reporting", "sequences", "asymptotics",
                   "exemplars", "fractal_geometry", "spectral_triples")

# Methods traced besides every public module-level function.  Accessors that
# run once per enumerated word (LimitIfs.level, Similarity.linear) stay
# unwrapped: their cost belongs to the enumeration that calls them, and a
# wrapper there would swamp what it measures.
METHODS = {
    "sequences": ("EigenvalueSequence.from_values",
                  "EigenvalueSequence.from_function",
                  "EigenvalueSequence.from_profile",
                  "EigenvalueSequence.mu", "EigenvalueSequence.prefix",
                  "EigenvalueSequence.power", "EigenvalueSequence.tail_sum"),
}

# CSV writers are reporting work wherever they live
RENAMES = {
    ("reporting", "_write_csv"): "reporting.to_csv",
    ("sequences", "EigenvalueSequence.to_csv"): "reporting.to_csv",
    ("spectral_triples", "GapTripleModel.to_csv"): "reporting.to_csv",
    ("spectral_triples", "PairTripleModel.to_csv"): "reporting.to_csv",
    ("cli", "main"): "reporting.cli_main",
    ("fractal_geometry", "attractor_cloud"): "fractal_geometry.box_dimension",
    ("fractal_geometry", "box_dimension_estimate"):
        "fractal_geometry.box_dimension",
    ("fractal_geometry", "minkowski_content_estimate"):
        "fractal_geometry.minkowski_content",
}


class Tracer:
    """In-memory span accounting for one process."""

    def __init__(self):
        self._stack = []          # [start, time of child spans]
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.errors = Counter()   # "layer:CODE" -> count
        self._error_type = None

    # -- spans ------------------------------------------------------------

    def _enter(self):
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, name):
        elapsed = time.perf_counter() - frame[0]
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += elapsed
        self.self_s[name] += elapsed - frame[1]

    @contextlib.contextmanager
    def span(self, name):
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(frame, name)

    def wrap(self, fn, name, post=None):
        """Wrapper timing fn as span ``name``.

        ``post(result)`` may count work and return another span
        name for this call (the route the call took), or None.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter()
            final = name
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    final = post(result) or name
                return result
            except BaseException as e:
                tracer._count_error(e, name)
                raise
            finally:
                tracer._exit(frame, final)

        return traced

    def _count_error(self, exc, name):
        if self._error_type is None or not isinstance(exc, self._error_type):
            return
        if getattr(exc, "_perfbench_counted", False):
            return
        exc._perfbench_counted = True
        self.errors[f"{name.split('.')[0]}:{exc.code}"] += 1

    # -- imports ----------------------------------------------------------

    def hook_scipy_import(self):
        """Time every first import of scipy as its own span, wherever it
        happens, so a lazy import moves between setup and a layer visibly."""
        real = builtins.__import__
        tracer = self
        inside = [False]

        def hooked(name, globals=None, locals=None, fromlist=(), level=0):
            if level or inside[0] or not name.startswith("scipy") \
                    or name in sys.modules:
                return real(name, globals, locals, fromlist, level)
            inside[0] = True
            frame = tracer._enter()
            try:
                return real(name, globals, locals, fromlist, level)
            finally:
                tracer._exit(frame, "import.scipy")
                inside[0] = False

        builtins.__import__ = hooked

    # -- instrumentation --------------------------------------------------

    def instrument(self, package):
        """Wrap the package's public functions and the traced methods."""
        from fractrace.errors import FractraceError
        self._error_type = FractraceError
        mods = {m: sys.modules[f"{package.__name__}.{m}"]
                for m in PACKAGE_MODULES
                if f"{package.__name__}.{m}" in sys.modules}
        namespaces = [vars(package)] + [vars(m) for m in mods.values()]
        posts = _post_hooks(self)

        for short, mod in mods.items():
            targets = [n for n, obj in vars(mod).items()
                       if inspect.isfunction(obj) and not n.startswith("_")
                       and obj.__module__ == mod.__name__]
            targets += [path for (m, path) in RENAMES if m == short]
            targets += list(METHODS.get(short, ()))
            for path in dict.fromkeys(targets):
                name = RENAMES.get((short, path),
                                   f"{_layer(short)}.{path.split('.')[-1]}")
                self._install(mod, path, name, posts.get(name), namespaces)

        reporting = mods.get("reporting")
        if reporting is not None:
            proxy = types.ModuleType("json")
            proxy.__dict__.update(vars(json))
            proxy.load = self.wrap(json.load, "reporting.config_load")
            reporting.json = proxy

    def _install(self, mod, path, name, post, namespaces):
        owner = mod
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
            if owner is None:
                return
        raw = inspect.getattr_static(owner, attr, None)
        if raw is None:
            return
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(self.wrap(raw.__func__, name, post)))
            return
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, post)))
            return
        if not callable(raw):
            return
        fn = self._counting_prefix(raw) if name == "sequences.prefix" else raw
        wrapped = self.wrap(fn, name, post)
        if outer:
            setattr(owner, attr, wrapped)
            return
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is raw:
                    ns[key] = wrapped

    def _counting_prefix(self, prefix):
        """EigenvalueSequence.prefix that counts the entries it materializes:
        a materialization replaces the cached prefix array."""
        counts = self.counts

        def counted(seq, n):
            before = getattr(seq, "_prefix", None)
            out = prefix(seq, n)
            after = getattr(seq, "_prefix", None)
            if after is not None and after is not before:
                counts["sequences.entries_materialized"] += len(after)
            return out

        return counted

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts),
                "errors": dict(self.errors)}


def _layer(module_short: str) -> str:
    return "reporting" if module_short == "cli" else module_short


def _post_hooks(tracer: Tracer) -> dict:
    """Counters and route splits, read off each call's result."""
    counts = tracer.counts

    def gaps(result):
        counts["fractal_geometry.gaps_count"] += len(result.starts)
        return ("fractal_geometry.gaps_exact" if result.exact
                else "fractal_geometry.gaps_float")

    def pairs(result):
        counts["spectral_triples.pair_words"] += len(result.values) // 2

    def scan(result):
        counts["asymptotics.scan_points"] += len(result.t_points)
        return f"asymptotics.eccentricity_scan.{result.route}"

    def tail(result):
        counts[f"sequences.tail_sum.{result[2]}"] += 1

    return {"fractal_geometry.gaps_from_interval_ifs": gaps,
            "spectral_triples.pair_triple": pairs,
            "asymptotics.eccentricity_scan": scan,
            "sequences.tail_sum": tail}
