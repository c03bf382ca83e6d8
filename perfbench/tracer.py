"""Outside-in instrumentation of the sensormarket package.

Nothing under ``src/`` knows about tracing.  ``patched`` swaps package
functions and methods for wrappers and puts the originals back on exit;
``Tracer`` builds those wrappers.  A span wrapper records one span per call
(name, start, end, parent span) in compact in-memory arrays and keeps, per
name, the call count, the total time and the self time (the span's duration
minus the time of its child spans).  A count wrapper only counts calls.

Two details of the package decide how patching must be done:

* Some ledger functions are imported by name into other modules (for
  example ``sighash`` into ``wallet``, ``channels`` and ``contracts``).  A
  module-level function is therefore rebound in every package module whose
  namespace holds it.
* Block hooks are bound methods captured into ``Node.on_block`` when actors
  are built, so methods must be patched before ``ScenarioRun`` is built.
"""

from __future__ import annotations

import json
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Iterator

PACKAGE = "sensormarket"


def _package_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


@contextmanager
def patched(replacements: list[tuple[object, str, Callable]]) -> Iterator[None]:
    """Apply ``(owner, attribute, make_wrapper)`` replacements, then undo them.

    ``owner`` is a class (the method is replaced on the class) or a module
    (the function is replaced in every package module that names it).
    ``make_wrapper`` receives the current callable and returns its wrapper.
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for owner, attr, make_wrapper in replacements:
            original = getattr(owner, attr)
            wrapper = make_wrapper(original)
            if isinstance(owner, type):
                undo.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
                continue
            for module in _package_modules():
                for name, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, name, value))
                        setattr(module, name, wrapper)
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


class Tracer:
    """Spans and counters for one traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One entry per span, indexed by span id.
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.run_starts: list[int] = []  # id of the first span of each run
        self._stack: list[list[int]] = []  # [span id, child ns] of open spans
        self._calls: list[int] = []
        self._total_ns: list[int] = []
        self._self_ns: list[int] = []
        self._errors: dict[str, dict[str, int]] = {}

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._calls.append(0)
            self._total_ns.append(0)
            self._self_ns.append(0)
        return nid

    def begin_run(self) -> None:
        """Mark the start of one scenario run; span ids after this belong to it."""
        self.run_starts.append(len(self.span_start))

    def span(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, total_ns, self_ns = self._calls, self._total_ns, self._self_ns
        errors = self._errors

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0)
            frame = [sid, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                by_class = errors.setdefault(name, {})
                cls = type(exc).__name__
                by_class[cls] = by_class.get(cls, 0) + 1
                raise
            finally:
                t1 = perf_counter_ns()
                ends[sid] = t1
                stack.pop()
                duration = t1 - t0
                calls[nid] += 1
                total_ns[nid] += duration
                self_ns[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return wrapper

    def count(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        calls = self._calls

        def wrapper(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)

        return wrapper

    def take_stats(self) -> dict:
        """Per-name calls, total and self seconds, and raised exception
        classes, accumulated since the last call; the counters restart."""
        stats = {
            name: {
                "calls": self._calls[nid],
                "total_s": self._total_ns[nid] / 1e9,
                "self_s": self._self_ns[nid] / 1e9,
                "errors": dict(self._errors.get(name, {})),
            }
            for name, nid in self._ids.items()
        }
        for nid in range(len(self.names)):
            self._calls[nid] = self._total_ns[nid] = self._self_ns[nid] = 0
        self._errors.clear()
        return stats

    def write(self, path: Path) -> None:
        """Write every span: a JSON header line, then the four arrays."""
        header = {
            "names": self.names,
            "run_starts": self.run_starts,
            "count": len(self.span_start),
            "arrays": [
                ["name", self.span_name.typecode],
                ["parent", self.span_parent.typecode],
                ["start_ns", self.span_start.typecode],
                ["end_ns", self.span_end.typecode],
            ],
            "byteorder": sys.byteorder,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(out)


def read_spans(path: Path) -> tuple[dict, dict[str, array]]:
    """Read a file written by ``Tracer.write`` into (header, arrays)."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        arrays = {}
        for field, typecode in header["arrays"]:
            arr = array(typecode)
            arr.fromfile(f, header["count"])
            if header["byteorder"] != sys.byteorder:
                arr.byteswap()
            arrays[field] = arr
    return header, arrays
