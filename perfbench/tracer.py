"""Spans around teleport_ent's functions, installed from outside the package.

``Tracer.install`` replaces each target function with a timing wrapper in
every ``teleport_ent`` module namespace that binds it (``from x import f``
copies a binding, so patching the defining module alone would miss the
callers that imported it by name).  Spans are (name, start, end, parent)
and stay in memory until ``write``.  Self time is a span's duration minus
the time covered by its direct children, accumulated as spans close.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (module, function) pairs wrapped by the traced run; names missing from
# the package are skipped, so a refactor that deletes one costs its metric
# only.
TARGETS = (
    ("cli", "main"),
    ("mixed", "classify_mixed"),
    ("mixed", "singlet_fraction_mixed"),
    ("mixed", "e_d2_mixed"),
    ("mixed", "e_d3_mixed"),
    ("mixed", "cren_estimate"),
    ("mixed", "fef_2qubit_closed_form"),
    ("measures", "concurrence_2qubit"),
    ("measures", "negativity_mixed"),
    ("states", "spectral_decomposition"),
    ("linalg", "herm_eig"),
    ("dynamics", "evolve"),
    ("dynamics", "sweep"),
    ("dynamics", "_diagnostics"),
    ("qutrit_family", "e32_of_family"),
    ("stateio", "read_state_file"),
    ("stateio", "format_report"),
    ("stateio", "format_csv"),
)

PACKAGE = "teleport_ent"
ROOT = "op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.calls: list[int] = []
        # (name, args, kwargs, result) of calls whose results feed metrics
        self.observed: list[tuple] = []
        self._stack: list[int] = []
        self._covered: list[float] = []
        self._patched: list[tuple] = []
        self._observe = set()

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.calls.append(0)
        return nid

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._covered.append(0.0)
        return idx, parent

    def _close(self, nid: int, idx: int, parent: int, t0: float, t1: float) -> None:
        self._stack.pop()
        covered = self._covered.pop()
        self.spans[idx] = (nid, t0, t1, parent)
        dur = t1 - t0
        self.self_s[nid] += dur - covered
        self.total_s[nid] += dur
        self.calls[nid] += 1
        if self._covered:
            self._covered[-1] += dur

    def run_op(self, fn, *args):
        """Run fn(*args) inside a root span; returns (result, wall seconds)."""
        nid = self._id(ROOT)
        idx, parent = self._open()
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            t1 = time.perf_counter()
            self._close(nid, idx, parent, t0, t1)
        return out, t1 - t0

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        observe = name in self._observe
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, parent = self._open()
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(nid, idx, parent, t0, clock())
            if observe:
                self.observed.append((name, args, kwargs, out))
            return out

        return wrapper

    def install(self, observe=()) -> None:
        self._observe = set(observe)
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for mod_name, attr in TARGETS:
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            orig = getattr(home, attr, None) if home is not None else None
            if orig is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{attr}", orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def self_of(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def total_of(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.total_s[nid]

    def calls_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def write(self, path: str) -> None:
        """Spans as parallel arrays; parent is a span index, -1 for a root."""
        spans = [s for s in self.spans if s is not None]
        arr = np.array(spans, dtype=float).reshape(-1, 4)
        np.savez(path, names=np.array(self.names), name_id=arr[:, 0].astype(np.int32),
                 start=arr[:, 1], end=arr[:, 2], parent=arr[:, 3].astype(np.int64))
