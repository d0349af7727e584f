"""In-memory spans around the calls one cadps layer makes into another.

A ``Tracer`` replaces module attributes (``cadps.sampler.smoothed_score``
and the like) with timing wrappers.  The library resolves these names
through module globals at call time, so a wrapper installed on the
caller's module sees every call that layer makes, including the calls
made through lambdas and closures defined in that module.

Each span keeps its name, start, end, parent and a few attributes (rows
evaluated, CG iterations, the guidance method of the enclosing chain
run).  The spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    method: str | None = None
    attrs: dict = field(default_factory=dict)
    child_s: float = 0.0  # time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str, method: str | None = None, **attrs) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            parent=None if parent is None else parent.id,
            name=name,
            start=time.perf_counter(),
            method=method if method is not None else (parent.method if parent else None),
            attrs=attrs,
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._stack:
            self._stack[-1].child_s += span.duration

    def wrap(self, module, attr: str, name: str, describe=None, method_of=None):
        """Replace ``module.attr`` with a wrapper that records a span.

        ``describe(args, kwargs, result)`` returns attributes to store on
        the span; ``method_of(args, kwargs)`` names the guidance method
        the call runs for, which child spans inherit.
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            method = method_of(args, kwargs) if method_of else None
            span = self.begin(name, method=method)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(span)
            if describe is not None:
                span.attrs.update(describe(args, kwargs, result))
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "parent": s.parent,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "self_s": s.self_s,
                            "method": s.method,
                            **s.attrs,
                        }
                    )
                    + "\n"
                )
