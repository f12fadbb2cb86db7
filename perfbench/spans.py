"""In-memory spans recorded around calls into snrtrain's functions.

A Tracer replaces a function at the name its caller looks it up under
(a module attribute or a class attribute) with a wrapper that records one
span per call: name, start, end, parent span and thread. Spans stay in
memory until the benchmark writes them out. close() puts every original
function back, so code that runs after it is not traced.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

_MISSING = object()


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "info")

    def __init__(self, name, start, end=0.0, parent=None, thread="", info=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread
        self.info = info or {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> dict:
    """Map span -> its duration minus the time its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    result = {}
    for span in spans:
        intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                           for c in children[id(span)])
        covered = 0.0
        cursor = span.start
        for start, end in intervals:
            if end <= cursor:
                continue
            covered += end - max(start, cursor)
            cursor = end
        result[span] = span.duration - covered
    return result


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.missing: list = []
        self._local = threading.local()
        self._patches: list = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def traced(self, fn, name, info=None):
        """fn wrapped to record a span; info(args, kwargs, result) -> dict."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, 0.0, parent=stack[-1] if stack else None,
                        thread=threading.current_thread().name)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr, replace) -> None:
        """Set owner.attr to replace(original) until close(); an absent
        attribute is noted in self.missing and left alone."""
        original = vars(owner).get(attr, _MISSING)
        if original is _MISSING:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, replace(original))
        self._patches.append((owner, attr, original))

    def wrap(self, owner, attr, name, info=None) -> None:
        self.patch(owner, attr, lambda original: self.traced(original, name, info))

    def close(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON object per line; parent is the parent's line index."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        own = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                parent = None if span.parent is None else index[id(span.parent)]
                fh.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "self": own[span], "parent": parent, "thread": span.thread,
                    **span.info}) + "\n")
