"""Span tracing of the semwalk layers, installed from outside the package.

The tracer replaces every public function of the traced modules, and the
public methods (plus ``__post_init__``) of the classes they define, with a
wrapper that records one span per call: name, start, end and the span that
was open when the call began.  A function is replaced at every name it is
bound under, in every module of the package, so that ``congruences.product``
is traced as well as ``words.product``.  Spans are kept in flat arrays in
memory, with a flag for calls that raised, and written out once, at the end
of the run.

Self time of a span is its duration minus the time of its direct child
calls, each taken from the child wrapper's entry to its exit.  A span covers
only the wrapped call, so the time a wrapper spends on its own bookkeeping
falls in no layer's self time; the benchmark reports it as the traced run's
overhead beside the per-layer numbers.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from array import array
from pathlib import Path
from time import perf_counter

PACKAGE = "semwalk"
TRACED_MODULES = ("words", "congruences", "codes", "graphs", "walks", "cli")
# Word and Alphabet are the values every other layer passes around; their
# methods are the inner loop of the program, not a layer boundary.
UNTRACED_CLASSES = {"Word", "Alphabet"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self._stack: list[list] = []  # [span id, time covered by children]
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        stack = self._stack
        starts, ends, parents, names, raised = self.start, self.end, self.parent, self.name_id, self.raised
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            sid = len(starts)
            parents.append(stack[-1][0] if stack else -1)
            names.append(nid)
            starts.append(0.0)
            ends.append(0.0)
            raised.append(0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[sid] = 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
                calls[nid] += 1
                self_s[nid] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += perf_counter() - entered

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the traced modules' functions and methods at every binding site."""
        wrapped: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        for short in TRACED_MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
                elif isinstance(obj, type) and attr not in UNTRACED_CLASSES:
                    for meth, fn in sorted(vars(obj).items()):
                        if isinstance(fn, types.FunctionType) and (meth == "__post_init__" or not meth.startswith("_")):
                            label = "init" if meth == "__post_init__" else meth
                            self._set(obj, meth, self._wrap(fn, f"{short}.{attr}.{label}"))
        # Functions are looked up through the module that imported them
        # (``from .words import product``), so rebind every such name.
        for name, mod in sorted(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                original, wrapper = wrapped.get(id(obj), (None, None))
                if obj is original:
                    self._set(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------- results

    @property
    def span_count(self) -> int:
        return len(self.start)

    def totals(self, name: str) -> tuple[int, float]:
        """(calls, self seconds) of a layer; (0, 0.0) if nothing has that name."""
        if name not in self.names:
            return 0, 0.0
        nid = self.names.index(name)
        return self.calls[nid], self.self_s[nid]

    def _spans_of(self, name: str) -> list[int]:
        if name not in self.names:
            return []
        nid = self.names.index(name)
        return [i for i in range(self.span_count) if self.name_id[i] == nid]

    def inclusive_s(self, name: str) -> float:
        return sum((self.end[i] - self.start[i] for i in self._spans_of(name)), 0.0)

    def child_spans(self, parent_name: str, child_name: str) -> list[int]:
        """Spans of child_name whose direct parent is a parent_name span."""
        parents = set(self._spans_of(parent_name))
        return [i for i in self._spans_of(child_name) if self.parent[i] in parents]

    def write(self, directory: Path, stem: str) -> Path:
        """Write the spans as raw arrays plus a JSON index naming them."""
        directory.mkdir(parents=True, exist_ok=True)
        columns = {"name_id": self.name_id, "parent": self.parent, "start": self.start, "end": self.end, "raised": self.raised}
        for col, arr in columns.items():
            with open(directory / f"{stem}.{col}.bin", "wb") as fh:
                arr.tofile(fh)
        index = directory / f"{stem}.json"
        index.write_text(json.dumps({
            "names": self.names,
            "spans": self.span_count,
            "columns": {col: {"file": f"{stem}.{col}.bin", "typecode": arr.typecode} for col, arr in columns.items()},
        }, indent=1) + "\n")
        return index
