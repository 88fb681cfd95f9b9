"""In-memory span recording and wrapper installation.

Spans are ``(id, parent_id, name, start_ns, end_ns)`` tuples kept in a
list and written out once, at the end of a run (or at the end of a forked
shard worker's share).  Parent ids come from a per-thread stack, so the
service's handler and scheduler threads each build their own trees.

Wrappers are installed on the *name each caller looks up*: for a module
function that means every module attribute bound to the original function
object (``repro.engine.connection.parse_statements`` as well as
``repro.sqlast.parser.parse_statements``); for a method it means the class
attribute.  :func:`restore` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import sys
import threading
from collections import Counter
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[int, int, str, int, int]


class Tracer:
    """Span and counter store for one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Start empty (also drops what a forked child inherited)."""
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.maxima: Dict[str, float] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)

    def ensure_own_process(self) -> None:
        if os.getpid() != self.pid:
            self.reset()

    # -- spans ----------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> Tuple[int, int, int]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent, perf_counter_ns()

    def close(self, token: Tuple[int, int, int], name: str) -> None:
        end = perf_counter_ns()
        sid, parent, start = token
        self._stack().pop()
        self.spans.append((sid, parent, name, start, end))

    # -- counters -------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def note_max(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value

    # -- output ---------------------------------------------------------
    def export(self) -> Dict[str, Any]:
        return {
            "pid": self.pid,
            "spans": self.spans,
            "counts": dict(self.counts),
            "maxima": self.maxima,
        }


TRACER = Tracer()

#: (owner, attribute, original) for every installed wrapper
_INSTALLED: List[Tuple[Any, str, Any]] = []


# ---------------------------------------------------------------------------
# wrapper factories
# ---------------------------------------------------------------------------
def span_wrapper(
    fn: Callable,
    name: Optional[str] = None,
    label: Optional[Callable[..., str]] = None,
    after: Optional[Callable[..., None]] = None,
) -> Callable:
    """*fn* inside a span.  *label(*args)* names the span per call;
    *after(result, *args)* runs on return (counters)."""
    tracer = TRACER

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        token = tracer.open()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(token, label(*args) if label is not None else name)
        if after is not None:
            after(result, *args)
        return result

    return wrapper


def generator_wrapper(fn: Callable, name: str, counter: str) -> Callable:
    """A generator function whose every ``next()`` is one span."""
    tracer = TRACER

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any):
        inner = fn(*args, **kwargs)
        while True:
            token = tracer.open()
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.close(token, name)
            tracer.count(counter)
            yield item

    return wrapper


def context_wrapper(fn: Callable, name: str) -> Callable:
    """A context-manager factory whose whole ``with`` block is one span."""
    tracer = TRACER

    @functools.wraps(fn)
    @contextlib.contextmanager
    def wrapper(*args: Any, **kwargs: Any):
        token = tracer.open()
        try:
            with fn(*args, **kwargs) as value:
                yield value
        finally:
            tracer.close(token, name)

    return wrapper


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------
def _set(owner: Any, attr: str, value: Any) -> None:
    _INSTALLED.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, value)


def patch_function(module_name: str, attr: str, make: Callable[[Callable], Callable]) -> int:
    """Replace *module_name.attr* everywhere a loaded ``repro`` module has
    bound that same function object.  Returns the number of bindings."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    wrapped = make(original)
    # keep pickling by reference working (Pool ships functions by name)
    bound = 0
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                _set(mod, key, wrapped)
                bound += 1
    return bound


def patch_method(cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace a method (or property getter) on *cls* itself."""
    original = getattr(cls, attr) if attr not in cls.__dict__ else cls.__dict__[attr]
    if isinstance(original, property):
        _INSTALLED.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, property(make(original.fget)))
        return
    if attr in cls.__dict__:
        _set(cls, attr, make(original))
    else:
        # inherited: shadow it on the subclass, remove on restore
        _INSTALLED.append((cls, attr, None))
        setattr(cls, attr, make(original))


def restore() -> None:
    while _INSTALLED:
        owner, attr, original = _INSTALLED.pop()
        if original is None:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------
def self_times(spans: List[Span]) -> Dict[int, int]:
    """span id -> self time (duration minus what its children cover)."""
    child_total: Dict[int, int] = {}
    for _sid, parent, _name, start, end in spans:
        if parent:
            child_total[parent] = child_total.get(parent, 0) + (end - start)
    return {
        sid: (end - start) - child_total.get(sid, 0)
        for sid, _parent, _name, start, end in spans
    }
