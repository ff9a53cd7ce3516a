"""A span tracer that wraps the public functions of e2quiver from outside.

The tracer changes nothing under ``src/``.  ``Tracer.install`` replaces
every binding of each traced function in every loaded ``e2quiver`` module:
the defining module, the package namespace, and the copies that
``from .linalg import ...`` makes in ``preproj``, ``moduli`` and ``euclid``.
It also replaces ``Matrix.matmul`` on the class.  Function-local imports
such as ``from .linalg import inverse`` read the defining module at call
time, so they see the wrapper too.  ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, attrs]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (-1 at top
level), and ``attrs`` a dict of sizes read from the arguments or the result,
or None.  Spans stay in memory; ``write`` stores them when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from typing import Any, Callable

ELIM = "linalg.elim"
MATMUL = "linalg.matmul"
ELIM_FUNCTIONS = (
    "sparse_kernel",
    "sparse_affine_solve",
    "solve",
    "solve_multi",
    "rank",
    "kernel_basis",
    "pivot_columns",
    "column_space_basis",
    "inverse",
)
# (module, function, span name) for every traced public function.
TRACED = [("linalg", fn, f"{ELIM}.{fn}") for fn in ELIM_FUNCTIONS] + [
    ("quiver", "double_arrows", "quiver.double_arrows"),
    ("preproj", "hom_basis", "preproj.hom_basis"),
    ("preproj", "end_algebra", "preproj.end_algebra"),
    ("preproj", "split", "preproj.split"),
    ("preproj", "decompose", "preproj.decompose"),
    ("preproj", "is_indecomposable", "preproj.is_indecomposable"),
    ("preproj", "is_isomorphic", "preproj.is_isomorphic"),
    ("preproj", "apply_gv", "preproj.apply_gv"),
    ("euclid", "to_quiver", "euclid.to_quiver"),
    ("euclid", "from_quiver", "euclid.from_quiver"),
    ("euclid", "validate", "euclid.validate"),
    ("moduli", "young_module", "moduli.young_module"),
    ("moduli", "framed_point", "moduli.framed_point"),
    ("moduli", "is_stable", "moduli.is_stable"),
    ("moduli", "framed_equivalent", "moduli.framed_equivalent"),
    ("cli", "main", "cli.main"),
]
# The elimination entry points form one layer: inverse calling solve_multi
# and rank is one elimination call of that layer.
GROUP = {name: (ELIM if name.startswith(ELIM + ".") else name) for _, _, name in TRACED}
GROUP[MATMUL] = MATMUL
RANK = f"{ELIM}.rank"
RANK_OWNERS = ("preproj.is_isomorphic", "moduli.framed_equivalent")


def _nnz_matrix(m) -> int:
    return sum(1 for v in m._e if v)


def _nnz_rows(rows) -> int:
    return sum(len(r) for r in rows)


def elim_size(fn: str, args: tuple) -> dict[str, int]:
    """Rows, columns (unknowns plus right-hand sides) and nonzeros of the
    system handed to an elimination entry point."""
    if fn == "sparse_kernel":
        rows, ncols = args[0], args[1]
        return {"rows": len(rows), "cols": ncols, "nnz": _nnz_rows(rows)}
    if fn == "sparse_affine_solve":
        rows, rhs, ncols = args[0], args[1], args[2]
        return {"rows": len(rows), "cols": ncols + 1, "nnz": _nnz_rows(rows) + sum(1 for v in rhs if v)}
    m = args[0]
    size = {"rows": m.rows, "cols": m.cols, "nnz": _nnz_matrix(m)}
    if fn == "solve":
        size["cols"] += 1
        size["nnz"] += sum(1 for v in args[1] if v)
    elif fn == "solve_multi":
        size["cols"] += args[1].cols
        size["nnz"] += _nnz_matrix(args[1])
    elif fn == "inverse":
        size["cols"] += m.rows
        size["nnz"] += m.rows
    return size


def _result_attrs(name: str, result: Any) -> dict[str, int] | None:
    if name in ("preproj.hom_basis", "preproj.end_algebra"):
        return {"dim": result.dim}
    if name == "preproj.split":
        return {"hit": int(result is not None)}
    if name == "preproj.decompose":
        return {"summands": len(result)}
    return None


def _e2quiver_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "e2quiver" or name.startswith("e2quiver.")]


class Tracer:
    """Collects the spans of the wrappers that ``install`` puts in place."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        """Record spans only while set: the item runs, not their checks."""
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, name: str, size: Callable[[tuple], dict] | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        group = GROUP[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, None]
            # sizes only where a group is entered from outside: a nested
            # call works on a system already counted
            if size is not None and (parent < 0 or GROUP[spans[parent][0]] != group):
                span[4] = size(args)
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            attrs = _result_attrs(name, result)
            if attrs is not None:
                span[4] = attrs
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding site of the traced functions."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _e2quiver_modules()
        for mod_name, fn_name, name in TRACED:
            original = getattr(sys.modules[f"e2quiver.{mod_name}"], fn_name)
            size = functools.partial(elim_size, fn_name) if GROUP[name] == ELIM else None
            wrapper = self._wrap(original, name, size)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        matrix = sys.modules["e2quiver.linalg"].Matrix
        original = matrix.__dict__["matmul"]
        self._restore.append((matrix, "matmul", original))
        matrix.matmul = self._wrap(
            original, MATMUL, lambda args: {"mults": args[0].rows * args[0].cols * args[1].cols}
        )

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def write(self, path) -> None:
        """Store the spans as gzipped JSON."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"], "spans": self.spans}, handle)


def untraced_bindings() -> list[str]:
    """Bindings of a traced function that still hold the original; empty
    while a tracer is installed."""
    missing = []
    modules = _e2quiver_modules()
    for mod_name, fn_name, _ in TRACED:
        current = getattr(sys.modules[f"e2quiver.{mod_name}"], fn_name)
        original = getattr(current, "__wrapped__", current)
        for mod in modules:
            missing.extend(f"{mod.__name__}.{attr}" for attr, value in vars(mod).items() if value is original)
    if not hasattr(sys.modules["e2quiver.linalg"].Matrix.__dict__["matmul"], "__wrapped__"):
        missing.append("e2quiver.linalg.Matrix.matmul")
    return missing


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Totals per group.

    ``calls`` and ``s`` count only spans entered from outside their group, so
    a recursive ``decompose`` is one call.  ``self_s`` is each span's
    duration minus the time its child spans cover, summed over all spans of
    the group.  Size attributes are summed over the counted calls, and
    ``max_cols`` is the widest.  ``rank_calls`` counts ``rank`` calls inside
    ``is_isomorphic`` or ``framed_equivalent`` but outside ``hom_basis``:
    the invertibility attempts.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        group = GROUP[name]
        g = out.setdefault(group, {"calls": 0, "s": 0.0, "self_s": 0.0})
        g["self_s"] += end - start - child_time[i]
        if _has_ancestor(spans, parent, group):
            continue
        g["calls"] += 1
        g["s"] += end - start
        for key, value in (attrs or {}).items():
            g[key] = g.get(key, 0) + value
            if key == "cols":
                g["max_cols"] = max(g.get("max_cols", 0), value)
        if name == RANK:
            owner = _rank_owner(spans, parent)
            if owner is not None:
                o = out.setdefault(owner, {"calls": 0, "s": 0.0, "self_s": 0.0})
                o["rank_calls"] = o.get("rank_calls", 0) + 1
    return out


def _has_ancestor(spans: list[list], p: int, group: str) -> bool:
    while p >= 0:
        if GROUP[spans[p][0]] == group:
            return True
        p = spans[p][3]
    return False


def _rank_owner(spans: list[list], p: int) -> str | None:
    while p >= 0:
        name = spans[p][0]
        if name == "preproj.hom_basis":
            return None
        if name in RANK_OWNERS:
            return name
        p = spans[p][3]
    return None
