"""Span tracer for the benchmark: wraps duplink functions at module boundaries.

duplink modules import functions by name (``from .metrics import
build_matrices``), so a call from ``engine`` to ``metrics.build_matrices``
looks the name up in ``duplink.engine``. Each hook therefore patches the
name in the *caller's* namespace. Hooks are installed only around traced
ops and removed afterwards, so untraced ops run the unmodified program.

A hook whose module or attribute no longer exists is skipped and its span
name is reported as ``absent``; nothing else changes.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

# (caller module, attribute, span name). The span name is "<layer>.<function>".
HOOKS = [
    ("duplink.cli", "main", "cli.main"),
    ("duplink.cli", "load_scenario", "network.load_scenario"),
    ("duplink.cli", "validate_scenario", "network.validate_scenario"),
    ("duplink.cli", "build_matrices", "metrics.build_matrices"),
    ("duplink.cli", "run", "engine.run"),
    ("duplink.cli", "build_system", "equilibrium.build_system"),
    ("duplink.cli", "trace_to_csv", "engine.trace_to_csv"),
    ("duplink.engine", "monte_carlo", "engine.monte_carlo"),
    ("duplink.engine", "generate", "scenarios.generate"),
    ("duplink.engine", "build_matrices", "metrics.build_matrices"),
    ("duplink.engine", "run", "engine.run"),
    ("duplink.engine", "step", "engine.step"),
    ("duplink.engine", "compute_state", "metrics.compute_state"),
    ("duplink.engine", "rate_differentials", "backhaul.rate_differentials"),
    # monte_carlo imports build_system inside its body, from the module itself.
    ("duplink.equilibrium", "build_system", "equilibrium.build_system"),
    # Set-up calls made by the benchmark through these module attributes.
    ("duplink.scenarios", "generate_mixed", "scenarios.generate"),
    ("duplink.network", "save_scenario", "network.save_scenario"),
]


def _run_info(result, args, kwargs):
    policy = args[1] if len(args) > 1 else kwargs.get("policy")
    return (policy if isinstance(policy, str) else "custom",
            result.verdict.kind, result.metrics["iterations_run"])


def _file_bytes(result, args, kwargs):
    path = args[2] if len(args) > 2 else kwargs["path"]
    return os.path.getsize(path)


# Extra data recorded from a call's arguments and result, per span name.
_INFO = {
    "engine.run": _run_info,
    "engine.trace_to_csv": _file_bytes,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = 0
        self.end = 0
        self.info = None


class Tracer:
    """Records nested spans while installed; one root span per traced op."""

    def __init__(self, hooks=HOOKS):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self._hooks = []
        missing = set()
        for module_name, attr, span_name in hooks:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            if module is None or not callable(getattr(module, attr, None)):
                missing.add(span_name)
            else:
                self._hooks.append((module, attr, span_name))
        # A span name is absent only when none of its hook points exists.
        self.absent = missing - {span_name for _, _, span_name in self._hooks}

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, _INFO.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                try:
                    span.info = info(result, args, kwargs)
                except (AttributeError, KeyError, TypeError, IndexError, OSError):
                    pass  # the call's signature or result changed; info stays None
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, span_name in self._hooks:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def root(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` with hooks installed, under a root span; returns
        (result, index of the root span)."""
        index = len(self.spans)
        self.install()
        try:
            return self._wrap(name, fn)(*args, **kwargs), index
        except BaseException:
            del self.spans[index:]
            raise
        finally:
            self.uninstall()


def self_times(spans: list[Span], first: int, last: int) -> dict[int, int]:
    """Self time (ns) of spans[first:last]: duration minus the part of the
    interval its children cover. Raises ValueError when a child does not
    nest inside its parent or siblings overlap."""
    children: dict[int, list[Span]] = {}
    for i in range(first, last):
        s = spans[i]
        if s.end < s.start:
            raise ValueError(f"span {s.name} ends before it starts")
        if s.parent >= 0:
            p = spans[s.parent]
            if not (p.start <= s.start and s.end <= p.end):
                raise ValueError(f"span {s.name} does not nest inside {p.name}")
            children.setdefault(s.parent, []).append(s)
    out = {}
    for i in range(first, last):
        s = spans[i]
        covered, cursor = 0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            if c.start < cursor:
                raise ValueError(f"sibling spans overlap under {s.name}")
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            covered += max(0, hi - lo)
            cursor = c.end
        out[i] = s.end - s.start - covered
    return out
