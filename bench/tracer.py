"""In-memory spans around the public functions of the momentxray modules.

The benchmark records spans from its own files: it replaces every binding of
a listed function in the ``momentxray.*`` modules with a wrapper that opens a
span, and restores the originals afterwards.  Functions look up module
globals at call time, so a call from one momentxray function to another goes
through the wrapper too.  No span is recorded outside an open root span.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    label: str = ""
    attrs: dict = field(default_factory=dict)


def self_times(spans):
    """Map span id -> duration minus the part of it that child spans cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so a child's time is never subtracted twice.
    """
    kids = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(kids.get(s.sid, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = (s.end - s.start) - covered
    return out


class Tracer:
    """Span store with a stack of open spans; one thread, one op at a time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._op = None

    def open(self, name, label="", op=None):
        if op is not None:
            self._op = op
        parent = self._stack[-1].sid if self._stack else None
        span = Span(sid=len(self.spans), name=name, start=self.clock(),
                    parent=parent, op=self._op, label=label)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @property
    def active(self):
        return bool(self._stack)

    @contextlib.contextmanager
    def root(self, name, op):
        """A root span (an op or its output check) around a block."""
        span = self.open(name, op=op)
        try:
            yield span
        finally:
            self.close(span)


@dataclass(frozen=True)
class Target:
    """One function to wrap: where it is defined and how to label its spans.

    ``owner`` is a module name, or ``module:Class`` for a method.  ``label``
    maps the call's (args, kwargs) to a label; ``after`` maps (result, args,
    kwargs) to counters stored on the span.  ``optional`` targets that no
    longer exist are skipped and reported as absent instead of failing.
    """

    owner: str
    name: str
    label: object = None
    after: object = None
    optional: bool = False

    @property
    def qualname(self):
        mod = self.owner.split(":")[0].rsplit(".", 1)[-1]
        return f"{mod}.{self.name}"


class Instrumentation:
    """Installs wrappers for a list of targets and removes them again."""

    package = "momentxray"

    def __init__(self, tracer, targets):
        self.tracer = tracer
        self.targets = list(targets)
        self.absent = []
        self._patched = []

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == self.package
                                      or n.startswith(self.package + "."))]

    def _wrapper(self, fn, target):
        tracer = self.tracer
        qual = target.qualname

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = target.label(args, kwargs) if target.label else ""
            span = tracer.open(qual, label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if target.after is not None:
                span.attrs.update(target.after(result, args, kwargs))
            return result

        functools.update_wrapper(traced, fn, updated=())
        traced.__bench_traced__ = True
        return traced

    def install(self):
        try:
            self._install()
        except Exception:
            self.uninstall()
            raise

    def _install(self):
        modules = self._modules()
        if not modules:
            raise RuntimeError(f"no {self.package} modules are imported")
        self.absent = []
        for target in self.targets:
            mod_name, _, cls_name = target.owner.partition(":")
            owner = sys.modules.get(mod_name)
            if owner is None:
                raise RuntimeError(f"module {mod_name} is not imported")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = owner.__dict__.get(target.name)
            if original is None:
                if target.optional:
                    self.absent.append(target.qualname)
                    continue
                raise RuntimeError(f"{target.owner}.{target.name} not found")
            wrapped = self._wrapper(original, target)
            if cls_name:
                self._patch(owner, target.name, original, wrapped)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapped)
        self._verify(modules)

    def _patch(self, holder, attr, original, wrapped):
        setattr(holder, attr, wrapped)
        self._patched.append((holder, attr, original))

    def _verify(self, modules):
        """Fail if a listed name is bound anywhere to an unwrapped object."""
        names = {t.name for t in self.targets
                 if ":" not in t.owner and t.qualname not in self.absent}
        for mod in modules:
            for attr, value in vars(mod).items():
                traced = getattr(value, "__bench_traced__", False)
                if attr in names and callable(value) and not traced:
                    raise RuntimeError(
                        f"{mod.__name__}.{attr} is bound but not wrapped")

    def uninstall(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
