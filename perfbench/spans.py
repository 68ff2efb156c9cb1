"""In-memory span recorder for the traced benchmark run.

`Tracer.wrap` replaces a function with a recording wrapper (layers.py
chooses the wrap points). Each call appends one span (name, phase,
start, end, parent, value) to flat arrays; nothing is aggregated or
written until the run ends. A span's self time is its duration minus the
durations of its direct child spans.
"""

import time
from array import array

import numpy as np


class Tracer:
    """Records spans of wrapped calls; `table()` freezes them for analysis."""

    def __init__(self):
        self._names = []
        self._name_ids = {}
        self._phases = []
        self._phase_id = 0
        self._name = array("i")
        self._phase = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._value = array("d")
        self._stack = []
        self._patches = []
        self.missing = []
        self.set_phase("")

    def set_phase(self, phase):
        """Tag the spans recorded from now on with `phase`."""
        if phase not in self._phases:
            self._phases.append(phase)
        self._phase_id = self._phases.index(phase)

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def wrap(self, owner, attr, label, value=None):
        """Replace `owner.attr` with a recording wrapper.

        `label` is the span name, or a callable taking the call's
        positional arguments and returning it. `value(args, result)`
        gives the number stored with the span (a step count, a row
        count, a clip flag). A missing attribute is noted, not raised:
        a program that no longer has the wrap point still runs, and
        run.py names the metrics that depend on it when it refuses to
        print a result without them.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        fixed = self._name_id(label) if isinstance(label, str) else None
        clock = time.perf_counter_ns
        stack = self._stack
        names, phases, parents = self._name, self._phase, self._parent
        starts, ends, values = self._start, self._end, self._value
        name_id = self._name_id
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(fixed if fixed is not None else name_id(label(args)))
            phases.append(tracer._phase_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            values.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if value is not None:
                values[idx] = value(args, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def reset(self):
        """Drop the spans recorded so far; the wrappers stay installed."""
        for arr in (self._name, self._phase, self._parent, self._start,
                    self._end, self._value):
            del arr[:]

    def uninstall(self):
        """Put every wrapped name back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def table(self):
        return SpanTable(
            names=list(self._names), phases=list(self._phases),
            name=np.frombuffer(self._name, dtype=np.int32).copy(),
            phase=np.frombuffer(self._phase, dtype=np.int32).copy(),
            parent=np.frombuffer(self._parent, dtype=np.int32).copy(),
            start=np.frombuffer(self._start, dtype=np.int64).copy(),
            end=np.frombuffer(self._end, dtype=np.int64).copy(),
            value=np.frombuffer(self._value, dtype=np.float64).copy())


class SpanTable:
    """Frozen spans, with per-name and per-phase sums."""

    def __init__(self, names, phases, name, phase, parent, start, end, value):
        self.names = names
        self.phases = phases
        self.name = name
        self.phase = phase
        self.parent = parent
        self.value = value
        self.start = start
        self.end = end
        self.dur = end - start
        child = np.zeros(len(self.dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], self.dur[has_parent])
        self.self_dur = self.dur - child

    def save(self, path):
        np.savez(path, names=np.array(self.names, dtype=str),
                 phases=np.array(self.phases, dtype=str), name=self.name,
                 phase=self.phase, parent=self.parent, start=self.start,
                 end=self.end, value=self.value)

    @classmethod
    def load(cls, path):
        with np.load(path) as z:
            return cls(names=[str(s) for s in z["names"]],
                       phases=[str(s) for s in z["phases"]], name=z["name"],
                       phase=z["phase"], parent=z["parent"],
                       start=z["start"], end=z["end"], value=z["value"])

    @classmethod
    def concat(cls, tables):
        """Join tables from separate processes into one."""
        names, phases, parts, offset = [], [], [], 0

        def ids(pool, items):
            for item in items:
                if item not in pool:
                    pool.append(item)
            return np.array([pool.index(i) for i in items], dtype=np.int32)

        for t in tables:
            name_ids, phase_ids = ids(names, t.names), ids(phases, t.phases)
            parts.append((name_ids[t.name], phase_ids[t.phase],
                          np.where(t.parent >= 0, t.parent + offset, -1),
                          t.start, t.end, t.value))
            offset += len(t.name)
        return cls(names, phases, *(np.concatenate(col) for col in zip(*parts)))

    def _mask(self, name, phase=None):
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        mask = self.name == self.names.index(name)
        if phase is not None:
            if phase not in self.phases:
                return np.zeros(len(self.name), dtype=bool)
            mask &= self.phase == self.phases.index(phase)
        return mask

    def calls(self, name, phase=None):
        return int(np.count_nonzero(self._mask(name, phase)))

    def total_s(self, name, phase=None, own=False):
        """Summed duration (or self time) of the named spans, seconds."""
        durations = self.self_dur if own else self.dur
        return float(np.sum(durations[self._mask(name, phase)])) * 1e-9

    def value_sum(self, name, phase=None):
        return float(np.sum(self.value[self._mask(name, phase)]))
