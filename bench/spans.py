"""Spans around the benchmark's calls into `enchilada`, kept in flat arrays.

A span has a name, a start, an end, a parent span and a case id.  Each case
opens one root span; every call the case makes into the package is a child
of it.  Spans stay in memory until the run ends and are then written once.
"""

from __future__ import annotations

from array import array
from time import perf_counter

import numpy as np


class Direct:
    """The untraced caller: same interface as Tracer, records nothing."""

    def open(self, case_id, name="case"):
        return -1

    def close(self, root, start, end):
        pass

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    """Records a span around each call; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.case = array("i")
        self._root = -1
        self._case = -1

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _record(self, nid, t0, t1):
        self.name.append(nid)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(self._root)
        self.case.append(self._case)

    def open(self, case_id, name="case"):
        """Reserve the root span of a case; its times are set by close()."""
        self._root = len(self.start)
        self._case = case_id
        self.name.append(self._id(name))
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(-1)
        self.case.append(case_id)
        return self._root

    def close(self, root, start, end):
        self.start[root] = start
        self.end[root] = end
        self._root = -1

    def call(self, name, fn, *args):
        nid = self._id(name)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self._record(nid, t0, perf_counter())

    def arrays(self):
        """The spans as numpy columns: (names, name_id, start, end, parent, case)."""
        return (
            list(self.names),
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.case, dtype=np.int32),
        )

    def write(self, path):
        """Write every span to a compressed .npz file."""
        names, name_id, start, end, parent, case = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(names),
            name=name_id,
            start=start,
            end=end,
            parent=parent,
            case=case,
        )


def tally(tracer, since):
    """Span counts by name among the spans recorded from index `since` on."""
    counts = np.bincount(np.array(tracer.name[since:], dtype=np.int32))
    return {tracer.names[i]: int(n) for i, n in enumerate(counts) if n}


def layer_times(tracer, scales):
    """Per span name (roots excluded): (calls, total seconds, durations),
    each span's duration multiplied by `scales[case id]`.

    Also the total duration of the case roots and the part of it that their
    child spans cover.  Layer spans are leaves, so a duration is a self time.
    """
    names, name_id, start, end, parent, case = tracer.arrays()
    dur = (end - start) * np.asarray(scales)[case]
    is_root = parent == -1
    out = {}
    for nid, name in enumerate(names):
        sel = (name_id == nid) & ~is_root
        if sel.any():
            out[name] = (int(sel.sum()), float(dur[sel].sum()), dur[sel])
    case_roots = np.flatnonzero(is_root & (name_id == names.index("case")))
    covered = float(dur[np.isin(parent, case_roots)].sum())
    return out, float(dur[case_roots].sum()), covered
