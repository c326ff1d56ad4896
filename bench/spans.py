"""In-memory span recorder and the wrappers that time isingrelax layers.

A span is (name, start, end, parent, failed): one call into a traced public
function, timed from outside the package. Spans are kept in memory while the traced
repetitions run and written out once at the end.
"""

from __future__ import annotations

import functools
import json
import os
import time

# (module, attribute) pairs; the span name is "<module>.<attribute>". Every
# namespace of the package that binds the same function object is patched too,
# so lindblad.build_operators and cli.spectrum / cli.energy_of are seen.
TRACED = [
    ("meanfield", "mf_rhs"),
    ("meanfield", "w_factor"),
    ("meanfield", "coupling_functions"),
    ("meanfield", "integrate_mf"),
    ("meanfield", "order_parameter_run"),
    ("meanfield", "order_parameter_mf"),
    ("meanfield", "soliton_ring"),
    ("lindblad", "lindblad_rhs"),
    ("lindblad", "integrate"),
    ("lindblad", "rate_split"),
    ("spin_core", "build_operators"),
    ("spin_core", "spectrum"),
    ("spin_core", "energy_of"),
    ("cavity", "exact_state"),
    ("cavity", "strong_j_state"),
    ("geometry", "coefficient_table"),
    ("cli", "write_csv"),
    ("cli", "write_meta"),
]
# AtomGeometry is a class: its __init__ (which runs the pairwise validation)
# is wrapped on the class itself. The cli handlers are reached through the
# HANDLERS table, resolve_config through the cli module.
CLASS_INIT = [("geometry", "AtomGeometry")]
HANDLER_SPAN = "cli.handler"
CONFIG_SPAN = "cli.config"

LAYER_NAMES = ([f"{m}.{a}" for m, a in TRACED] + [f"{m}.{a}" for m, a in CLASS_INIT]
               + [HANDLER_SPAN, CONFIG_SPAN])
# counters summed from the values traced calls return
COUNTERS = ["meanfield.nfev", "lindblad.nfev", "cli.write_csv.bytes"]


class Recorder:
    """Holds the spans of one traced run; single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []      # [name_id, start, end, parent, failed]
        self._stack: list[int] = []
        self.counters = {name: 0 for name in COUNTERS}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, on_return=None):
        nid = self._name_id(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [nid, time.perf_counter(), 0.0, stack[-1] if stack else -1, False]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end",
                                                      "parent", "failed"],
                       "spans": self.spans}, fh)


def aggregate(names: list[str], spans: list[list], lo: int = 0,
              hi: int | None = None) -> dict[str, dict]:
    """Per-name calls, errors, total time and self time over spans[lo:hi].

    Total time sums span durations (no traced function recurses); self time
    is a span's duration minus the durations of its direct children.
    Calls are single-threaded and nested, so children never overlap and their
    durations add up to the part of the parent they cover.
    """
    hi = len(spans) if hi is None else hi
    child_time = [0.0] * (hi - lo)
    for k in range(lo, hi):
        parent = spans[k][3]
        if parent >= lo:
            child_time[parent - lo] += spans[k][2] - spans[k][1]
    out = {name: {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0}
           for name in names}
    for k in range(lo, hi):
        nid, start, end, _, failed = spans[k]
        entry = out[names[nid]]
        entry["calls"] += 1
        entry["errors"] += int(failed)
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - child_time[k - lo]
    return out


def _csv_bytes(rec: Recorder):
    def count(args, kwargs, _result):
        path = kwargs.get("path", args[0] if args else None)
        rec.counters["cli.write_csv.bytes"] += os.path.getsize(path)
    return count


def _add_nfev(rec: Recorder, counter: str):
    def add(_args, _kwargs, result):
        rec.counters[counter] += int(result.n_rhs_evals)
    return add


def install(rec: Recorder, package) -> None:
    """Wrap every traced function in every package module that binds it."""
    modules = {name: getattr(package, name) for name in
               ("spin_core", "lindblad", "meanfield", "cavity", "geometry", "cli")}
    hooks = {("meanfield", "integrate_mf"): _add_nfev(rec, "meanfield.nfev"),
             ("lindblad", "integrate"): _add_nfev(rec, "lindblad.nfev"),
             ("cli", "write_csv"): _csv_bytes(rec)}
    for mod_name, attr in TRACED:
        original = getattr(modules[mod_name], attr)
        wrapper = rec.wrap(f"{mod_name}.{attr}", original, hooks.get((mod_name, attr)))
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    for mod_name, cls_name in CLASS_INIT:
        cls = getattr(modules[mod_name], cls_name)
        cls.__init__ = rec.wrap(f"{mod_name}.{cls_name}", cls.__init__)
    cli = modules["cli"]
    for command, handler in list(cli.HANDLERS.items()):
        cli.HANDLERS[command] = rec.wrap(HANDLER_SPAN, handler)
    cli.resolve_config = rec.wrap(CONFIG_SPAN, cli.resolve_config)
