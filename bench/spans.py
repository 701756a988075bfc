"""Timing shims around the package's public functions and methods.

A shim records one span per call: its duration, its self time (duration
minus the spans of traced calls made inside it) and the name of the
enclosing span.  Functions are replaced at every module attribute of the
package that refers to them, so calls made between modules
(`dynamics.general_map` as well as `codingmap.general_map`) are seen;
methods are replaced on their class.  A target the package no longer has
is skipped, and its metrics then read 0.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from time import perf_counter

# (module, attribute) of traced functions; (module, class.method) for methods.
FUNCTIONS = (
    ("stabilizer", "parse_code_spec"),
    ("codingmap", "diagonal_map"),
    ("codingmap", "general_map"),
    ("codingmap", "c_constants"),
    ("dynamics", "iterate"),
    ("dynamics", "threshold"),
    ("dynamics", "fixed_point_cross_check"),
    ("oracle", "build_logical_basis"),
    ("oracle", "extract_stokes"),
)
METHODS = (
    ("stabilizer", "StabilizerCode.validate"),
    ("stabilizer", "StabilizerCode.group"),
    ("stabilizer", "StabilizerCode.f_matrix"),
    ("stabilizer", "StabilizerCode.coefficient_table"),
    ("stabilizer", "StabilizerCode.distance_and_w"),
    ("codingmap", "DiagonalMapPolynomial.apply"),
)
# Spans that are also kept per code, keyed by the code's qubit count.
PER_CODE = {"codingmap.general_map", "oracle.extract_stokes"}


@dataclass
class SpanStats:
    durations: list = field(default_factory=list)
    self_s: float = 0.0
    parents: dict = field(default_factory=dict)
    levels: int = 0  # orbit levels, for iterate spans


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list] = []  # [name, child seconds]

    def _record(self, name: str, duration: float, child: float, parent: str | None, result) -> None:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.durations.append(duration)
        st.self_s += duration - child
        st.parents[parent] = st.parents.get(parent, 0) + 1
        if name == "dynamics.iterate":
            st.levels += result.iterations_used

    def wrap(self, name: str, fn):
        stack, record = self._stack, self._record
        per_code = name in PER_CODE

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += duration
            record(name, duration, frame[1], parent, result)
            if per_code:
                record(f"{name}#{args[0].n}", duration, frame[1], parent, result)
            return result

        return shim

    def install(self) -> list[str]:
        """Replace every target in the imported concatcode package; return
        the names that were not found."""
        package = sys.modules["concatcode"]
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "concatcode" or k.startswith("concatcode."))
        ]
        missing = []
        for mod_name, attr in FUNCTIONS:
            original = getattr(getattr(package, mod_name, None), attr, None)
            if original is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            shim = self.wrap(f"{mod_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, shim)
        for mod_name, dotted in METHODS:
            cls_name, meth = dotted.split(".")
            cls = getattr(getattr(package, mod_name, None), cls_name, None)
            original = getattr(cls, meth, None) if cls is not None else None
            if original is None:
                missing.append(f"{mod_name}.{dotted}")
                continue
            setattr(cls, meth, self.wrap(f"{mod_name}.{meth}", original))
        return missing
