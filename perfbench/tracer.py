"""Per-function spans for one framelat command, installed from outside the package.

The tracer wraps a fixed list of public functions, and rebinds every module
attribute of the ``framelat`` package that refers to one of them.  Rebinding
by identity matters: ``bareiss_determinant`` is imported by name into
``cli``, ``frames``, ``lattice`` and ``geometry``, and a call through any of
those names must be counted.

Each wrapped call is a span.  ``time_s`` adds a span's duration once per
outermost activation of the function (recursion is not counted twice), and
``self_s`` is the duration minus the time covered by directly nested wrapped
spans, so no stretch of time is counted in the self time of two spans.  A few functions also feed work counters; see ``Tracer._observe``.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time

# (module, function) pairs that get a span.  Names follow the package modules,
# which are the benchmark's layers.
TARGETS = (
    ("circulant", "search_conference_pairs"),
    ("circulant", "compute_N"),
    ("circulant", "circulant_inverse"),
    ("circulant", "load_pairs"),
    ("circulant", "save_pairs"),
    ("exact", "solve_linear"),
    ("exact", "bareiss_determinant"),
    ("exact", "ldl_decompose"),
    ("exact", "matrix_rank"),
    ("exact", "squarefree_decompose"),
    ("frames", "conference_frame"),
    ("frames", "coordinatize"),
    ("lattice", "enumerate_short_vectors"),
    ("lattice", "minimal_vectors"),
    ("lattice", "lattice_determinant"),
    ("lattice", "has_basis_of_minimal_vectors"),
    ("lattice", "equivalence_classes"),
    ("lattice", "packing_density"),
    ("geometry", "perfection_rank"),
    ("geometry", "strong_eutaxy_check"),
    ("geometry", "perfection_certificate_det_7_28"),
    ("cli", "_pair_facts"),
)

MODULES = ("circulant", "cli", "exact", "frames", "geometry", "lattice")


def _digest(obj) -> str:
    return hashlib.sha1(repr(obj).encode()).hexdigest()[:16]


class Tracer:
    """Span statistics and work counters for the wrapped functions."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, time_s, self_s]
        self.counts = {
            "search_candidates": 0,
            "search_pairs": 0,
            "enum_vectors": 0,
            "enum_vectors_for_minimum": 0,
            "minimal_vectors": 0,
            "perfection_entries": 0,
            "bareiss_max_dim": 0,
        }
        self.pair_keys: set[str] = set()
        self.gram_keys: set[str] = set()
        self._stack: list[list] = []  # [name, nested span time]
        self._depth: dict[str, int] = {}

    def wrap(self, name: str, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            self._depth[name] = self._depth.get(name, 0) + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self._depth[name] -= 1
                if self._stack:
                    self._stack[-1][1] += elapsed
                stats[0] += 1
                stats[2] += elapsed - frame[1]
                if self._depth[name] == 0:
                    stats[1] += elapsed
            self._observe(name, args, kwargs, result)
            return result

        return span

    def _observe(self, name, args, kwargs, result) -> None:
        c = self.counts
        if name == "circulant.search_conference_pairs":
            na, nd = sys.modules["framelat.circulant"].free_sign_counts(args[0])
            brute = kwargs.get("brute_force", False)
            c["search_candidates"] += 2 ** (na + nd) if brute else 2 ** na + 2 ** nd
            c["search_pairs"] += len(result)
        elif name == "cli._pair_facts":
            p = args[0]
            self.pair_keys.add(_digest((p.k, tuple(p.a_row), tuple(p.d_row))))
        elif name == "lattice.enumerate_short_vectors":
            c["enum_vectors"] += len(result)
            if self._stack and self._stack[-1][0] == "lattice.minimal_vectors":
                c["enum_vectors_for_minimum"] += len(result)
        elif name == "lattice.minimal_vectors":
            c["minimal_vectors"] += len(result.vectors)
        elif name == "exact.ldl_decompose":
            self.gram_keys.add(_digest([[str(e) for e in row] for row in args[0]]))
        elif name == "geometry.perfection_rank":
            model, report = args[0], args[1]
            c["perfection_entries"] += len(report.vectors) * model.k * (model.k + 1) // 2
        elif name == "exact.bareiss_determinant":
            c["bareiss_max_dim"] = max(c["bareiss_max_dim"], len(args[0]))

    def install(self) -> None:
        """Wrap every target and rebind it in each framelat module that holds it."""
        import framelat.cli  # noqa: F401  (loads every module of the package)

        mods = [sys.modules[f"framelat.{m}"] for m in MODULES]
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules[f"framelat.{mod_name}"], fn_name)
            wrapped = self.wrap(f"{mod_name}.{fn_name}", original)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

        cli = sys.modules["framelat.cli"]
        checks = cli.verification_checks

        def traced_checks(cfg):
            return [(label, self.wrap(f"cli.verify.{label}", fn)) for label, fn in checks(cfg)]

        cli.verification_checks = traced_checks

    def report(self) -> dict:
        return {
            "spans": self.spans,
            "counts": self.counts,
            "pair_keys": sorted(self.pair_keys),
            "gram_keys": sorted(self.gram_keys),
        }
