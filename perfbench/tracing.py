"""Traced mode: spans around calls into each zakgkp layer, recorded from outside.

``Tracer.install()`` replaces the public functions listed in ``SPANS``, in
every loaded ``zakgkp`` module that binds them (so names re-imported into
``zakgkp.cli`` are covered), plus the descriptor methods ``evaluate`` and
``tail_mass``, ``ModularWavefunction`` construction, ``modular.split`` and
``LogicalQubit.from_unnormalized``.  ``uninstall()`` restores the originals.
Spans are kept in memory as ``[name, start, end, parent, job]`` and written
out once, at the end of the run.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from collections import Counter

import numpy as np

import zakgkp.cli  # noqa: F401  (loads every module whose bindings get wrapped)
from zakgkp import core, gkp, modular
from zakgkp.errors import DegenerateLogicalError

OPERATORS = ("apply_X", "apply_Z", "apply_phase_u", "apply_phase_v", "apply_translate_u", "apply_translate_v")
SSD = ("to_ssd", "from_ssd", "gauge_trace", "ec_gauge_trace", "apply_X_ssd", "apply_Z_ssd", "pp_bridge", "pp_bridge_inverse")
GKP = ("logical_from_overlap", "ec_channel_logical", "stabilizer_residual", "ec_kraus_amplitudes")
GRIDIO_SAVE = ("save_grid_csv", "save_grid_binary", "save_point_list_csv")
GRIDIO_LOAD = ("load_grid_csv", "load_grid_binary")
SPANS = (
    [("cli", "main"), ("core", "zak_transform")]
    + [("operators", f) for f in OPERATORS]
    + [("ssd", f) for f in SSD]
    + [("gkp", f) for f in GKP]
    + [("gridio", f) for f in GRIDIO_SAVE + GRIDIO_LOAD]
)
DESCRIPTORS = (core.VacuumState, core.GaussianComb, core.TabulatedState)
#: a comb term exp(-d^2 / 2 vt) is a normal double while d^2 / 2 vt < -ln(2.2e-308)
UNDERFLOW_EXPONENT = 708.39


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = "setup"
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _spanned(self, name, fn, after=None):
        """``fn`` inside a span; ``after(args)`` does its bookkeeping in a
        ``trace.bookkeeping`` span, so that it is charged to no layer's self time."""

        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                self._open("trace.bookkeeping")
                try:
                    after(args)
                finally:
                    self._close()
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        # a class keeps its raw attribute (e.g. the classmethod object), a module its binding
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement):
        """Point every binding of ``original`` in the loaded zakgkp modules at ``replacement``."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "zakgkp" or name.startswith("zakgkp.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for layer, fn_name in SPANS:
            original = getattr(sys.modules[f"zakgkp.{layer}"], fn_name)
            after = None
            if fn_name in GRIDIO_SAVE:
                after = self._count_written
            elif fn_name in GRIDIO_LOAD:
                after = self._count_read
            self._rebind(original, self._spanned(f"{layer}.{fn_name}", original, after))
        for cls in DESCRIPTORS:
            evaluate = cls.__dict__["evaluate"]
            counter = self._count_comb_terms if cls is core.GaussianComb else self._count_points
            self._set(cls, "evaluate", self._spanned("core.evaluate", evaluate, counter))
            self._set(cls, "tail_mass", self._spanned("core.tail_mass", cls.__dict__["tail_mass"]))
        self._set(core.ModularWavefunction, "__init__", self._counted_init(core.ModularWavefunction.__init__))
        self._rebind(modular.split, self._counted("modular.split.calls", modular.split))
        self._set(gkp.LogicalQubit, "from_unnormalized", self._degenerate_counter(gkp.LogicalQubit.from_unnormalized))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- counters ----------------------------------------------------------

    def _counted(self, key, fn):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_init(self, init):
        def __init__(wavefunction, *args, **kwargs):
            init(wavefunction, *args, **kwargs)
            self.counts["core.wavefunctions.created"] += 1
            self.counts["core.wavefunctions.bytes"] += wavefunction.samples.nbytes

        return __init__

    def _degenerate_counter(self, bound):
        def from_unnormalized(cls, *args, **kwargs):
            try:
                return bound.__func__(cls, *args, **kwargs)
            except DegenerateLogicalError:
                self.counts["gkp.degenerate.count"] += 1
                raise

        return classmethod(from_unnormalized)

    def _count_points(self, args):
        self.counts["core.evaluate.points"] += np.size(args[1])

    def _count_comb_terms(self, args):
        comb, x = args[0], np.ravel(np.asarray(args[1], dtype=float))
        centers = comb._centers
        reach = math.sqrt(2 * comb.tooth_variance * UNDERFLOW_EXPONENT)
        useful = np.searchsorted(centers, x + reach, "right") - np.searchsorted(centers, x - reach, "left")
        self.counts["core.evaluate.points"] += x.size
        self.counts["core.comb_terms"] += x.size * centers.size
        self.counts["core.comb_terms.useful"] += int(useful.sum())

    def _count_written(self, args):
        self.counts["gridio.bytes_written"] += os.path.getsize(args[1])

    def _count_read(self, args):
        self.counts["gridio.bytes_read"] += os.path.getsize(args[0])

    # -- results -----------------------------------------------------------

    def busy_and_self(self):
        """Per span name: ``(calls, busy seconds, self seconds)``.

        Busy time skips spans nested inside a span of the same name; self
        time is a span's duration minus that of its direct children (spans
        are strictly nested, since the client is single-threaded).
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _job in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {}
        for i, (name, start, end, parent, _job) in enumerate(self.spans):
            calls, busy, own = stats.get(name, (0, 0.0, 0.0))
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            nested = p >= 0
            stats[name] = (calls + 1, busy + (0.0 if nested else end - start), own + (end - start) - child_time[i])
        return stats

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": self.spans}, fh)


def layer_metrics(tracer):
    """Per-layer metric values (without ``cli.import_ms`` and ``trace.overhead_frac``)."""
    stats = tracer.busy_and_self()
    counts = tracer.counts

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def ms(name):
        return 1e3 * stats.get(name, (0, 0.0, 0.0))[1]

    def self_ms(name):
        return 1e3 * stats.get(name, (0, 0.0, 0.0))[2]

    out = {
        "cli.main.self_ms": self_ms("cli.main"),
        "core.zak_transform.calls": calls("core.zak_transform"),
        "core.zak_transform.ms": ms("core.zak_transform"),
        "core.zak_transform.self_ms": self_ms("core.zak_transform"),
        "core.evaluate.ms": ms("core.evaluate"),
        "core.evaluate.points": counts["core.evaluate.points"],
        "core.tail_mass.ms": ms("core.tail_mass"),
        "core.comb_terms": counts["core.comb_terms"],
        "core.comb_terms.useful_frac": counts["core.comb_terms.useful"] / max(counts["core.comb_terms"], 1),
        "core.wavefunctions.created": counts["core.wavefunctions.created"],
        "core.wavefunctions.mb": counts["core.wavefunctions.bytes"] / 1e6,
        "operators.apply_X.ms": ms("operators.apply_X"),
        "operators.apply_Z.ms": ms("operators.apply_Z"),
        "operators.calls": sum(calls(f"operators.{f}") for f in OPERATORS),
        "gkp.degenerate.count": counts["gkp.degenerate.count"],
        "modular.split.calls": counts["modular.split.calls"],
        "gridio.bytes_written": counts["gridio.bytes_written"],
        "gridio.bytes_read": counts["gridio.bytes_read"],
    }
    for f in SSD:
        out[f"ssd.{f}.ms"] = ms(f"ssd.{f}")
    for f in GKP:
        out[f"gkp.{f}.ms"] = ms(f"gkp.{f}")
    for f in GRIDIO_SAVE + GRIDIO_LOAD:
        out[f"gridio.{f}.ms"] = ms(f"gridio.{f}")
    write_ms = sum(ms(f"gridio.{f}") for f in GRIDIO_SAVE)
    read_ms = sum(ms(f"gridio.{f}") for f in GRIDIO_LOAD)
    # bytes per microsecond is MB/s
    out["gridio.write_MBps"] = counts["gridio.bytes_written"] / (1e3 * write_ms) if write_ms else 0.0
    out["gridio.read_MBps"] = counts["gridio.bytes_read"] / (1e3 * read_ms) if read_ms else 0.0
    return out
