"""In-memory span tracer over the public functions of a package.

`Tracer.install` replaces every module binding of each public function
(for example `distance_matrix` in graphs, audit, indices, trees and cli)
with a timing wrapper; `uninstall` puts the originals back.  Nothing in the
package itself changes.

Each call is a span: name, start, end and the span it ran under.  Calls are
aggregated per (phase, parent name, name) into calls, busy time, self time
and an optional per-call count; individual spans are also kept, up to
SPAN_LIMIT per function, and written out once by `write`.  A generator
function's span covers its whole iteration: busy time is the sum of the
time spent inside it between resumptions, so work the consumer does between
items is not charged to it.  A phase is the root span the benchmark opens
around one unit of work (an audit suite, one cli call).
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import sys
import time
from array import array
from contextlib import contextmanager

SPAN_LIMIT = 100_000
TOP = "<top>"


class Tracer:
    def __init__(self):
        self.names = [TOP]
        self._calls = [0]
        self._new_span = itertools.count(1).__next__
        # frame: [span id, name id, seconds covered by child spans]
        self._stack = [[0, 0, 0.0]]
        self.phases: dict[str, dict[tuple[int, int], list]] = {TOP: {}}
        self._agg = self.phases[TOP]
        self.roots: list[tuple[str, float, float, float]] = []  # name, start, end, self
        # span columns: id, parent id, name id, start, end
        self._spans = (array("q"), array("q"), array("q"), array("d"), array("d"))
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self._calls.append(0)
        return len(self.names) - 1

    def _account(self, frame, parent, t0, t1, busy, count) -> None:
        name_id = frame[1]
        key = (parent[1], name_id)
        rec = self._agg.get(key)
        if rec is None:
            rec = self._agg[key] = [0, 0.0, 0.0, 0]
        rec[0] += 1
        rec[1] += busy
        rec[2] += busy - frame[2]
        rec[3] += count
        calls = self._calls[name_id] + 1
        self._calls[name_id] = calls
        if calls <= SPAN_LIMIT:
            ids, parents, names, starts, ends = self._spans
            ids.append(frame[0])
            parents.append(parent[0])
            names.append(name_id)
            starts.append(t0)
            ends.append(t1)

    # --- wrappers ---------------------------------------------------------

    def _wrap_call(self, name_id, fn, count):
        stack = self._stack
        clock = time.perf_counter
        account = self._account
        new_span = self._new_span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [new_span(), name_id, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                stack[-1][2] += t1 - t0
                account(frame, stack[-1], t0, t1, t1 - t0, 0)
                raise
            t1 = clock()
            stack.pop()
            parent = stack[-1]
            parent[2] += t1 - t0
            account(frame, parent, t0, t1, t1 - t0, count(args, result) if count else 0)
            return result

        return traced

    def _wrap_generator(self, name_id, fn):
        iterate = self._iterate

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return iterate(name_id, fn(*args, **kwargs))

        return traced

    def _iterate(self, name_id, gen):
        stack = self._stack
        clock = time.perf_counter
        frame = [self._new_span(), name_id, 0.0]
        parent = stack[-1]  # the body starts at the first resumption
        first = last = None
        busy = 0.0
        items = 0
        try:
            while True:
                resumer = stack[-1]
                stack.append(frame)
                t0 = clock()
                if first is None:
                    first = t0
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    last = clock()
                    stack.pop()
                    busy += last - t0
                    resumer[2] += last - t0
                items += 1
                yield item
        finally:
            gen.close()
            if first is not None:
                self._account(frame, parent, first, last, busy, items)

    # --- patching ---------------------------------------------------------

    def install(self, package: str, modules: list[str], counts: dict | None = None) -> None:
        """Wrap every public function defined in `package.<module>` for each
        of `modules`, at every binding of it in the package's modules.

        `counts` maps a function name such as "graphs.distance_matrix" to
        fn(args, result) -> int, summed into the aggregate's count column.
        Generator functions count the items they yield.
        """
        counts = counts or {}
        loaded = [m for name, m in sys.modules.items()
                  if name == package or name.startswith(package + ".")]
        for short in modules:
            module = sys.modules[f"{package}.{short}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not callable(obj):
                    continue
                fn = inspect.unwrap(obj)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                name_id = self._name_id(name)
                if inspect.isgeneratorfunction(fn):
                    wrapper = self._wrap_generator(name_id, obj)
                else:
                    wrapper = self._wrap_call(name_id, obj, counts.get(name))
                for mod in loaded:
                    for binding, value in list(vars(mod).items()):
                        if value is obj:
                            self._patches.append((mod, binding, obj))
                            setattr(mod, binding, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            mod, binding, obj = self._patches.pop()
            setattr(mod, binding, obj)

    # --- root spans -------------------------------------------------------

    @contextmanager
    def root(self, name: str):
        """A root span that also starts a phase of the same name."""
        outer_agg = self._agg
        self._agg = self.phases.setdefault(name, {})
        frame = [self._new_span(), self._name_id(name), 0.0]
        parent = self._stack[-1]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            parent[2] += t1 - t0
            self._account(frame, parent, t0, t1, t1 - t0, 0)
            self.roots.append((name, t0, t1, t1 - t0 - frame[2]))
            self._agg = outer_agg

    # --- results ----------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """Function name -> [calls, busy_s, self_s, count] over all phases."""
        out: dict[str, list] = {}
        for agg in self.phases.values():
            for (_, name_id), rec in agg.items():
                acc = out.setdefault(self.names[name_id], [0, 0.0, 0.0, 0])
                for i in range(4):
                    acc[i] += rec[i]
        return out

    def self_time(self, prefix: str, phase: str | None = None) -> float:
        """Self time of every span whose name starts with `prefix`, in one
        phase or in all of them."""
        total = 0.0
        for ph, agg in self.phases.items():
            if phase is None or ph == phase:
                for (_, name_id), rec in agg.items():
                    if self.names[name_id].startswith(prefix):
                        total += rec[2]
        return total

    def write(self, path: str) -> None:
        """Gzipped JSON lines: a header with names, roots and aggregates,
        then one [id, parent id, name id, start, end] line per kept span."""
        aggregates = [
            [phase, self.names[parent], self.names[name], *rec]
            for phase, agg in self.phases.items()
            for (parent, name), rec in agg.items()
        ]
        header = {"names": self.names, "roots": self.roots, "span_limit": SPAN_LIMIT,
                  "aggregates": aggregates}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for row in zip(*self._spans):
                fh.write(json.dumps(row) + "\n")
