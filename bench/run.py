"""Run one workload of the e2quiver benchmark and print its metrics.

    python3 bench/run.py --workload krull_schmidt --seed 1 --seconds 26 --trace 0

Run it from anywhere inside a checkout: it measures the package under the
checkout's own ``src/`` (nothing needs to be installed) and refuses to run
when ``e2quiver`` would be imported from anywhere else.  One process runs one
workload, single-threaded, as a closed loop: the next item starts when the
previous one is done and checked.

``--trace 0`` cycles through the run's distinct items in passes, at least
one, for ``--seconds`` seconds of item time and reports the end-to-end
metrics; an item's latency is the mean of its runs, each scaled to
reference seconds (see calibrate.py).  ``--trace 1`` runs one pass
(its items set by the seed and ``--seconds`` only, so its counts repeat
exactly) once untraced and once under the span tracer, and reports the
per-layer metrics.  Every output line but the last is a JSON object for
people; the last is the result.  Run details and the spans go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import calibrate
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
LAYERS = ("linalg", "quiver", "preproj", "euclid", "moduli", "cli")
SETUP_REPS = 5

# Per-layer metrics: name -> unit.  Times and counts cover the traced pass.
PER_LAYER = {
    "linalg.elim.calls": "count",
    "linalg.elim.self_s": "s",
    "linalg.elim.rows": "count",
    "linalg.elim.cols": "count",
    "linalg.elim.nnz": "count",
    "linalg.elim.max_cols": "count",
    "linalg.matmul.calls": "count",
    "linalg.matmul.self_s": "s",
    "linalg.matmul.mults": "count",
    "preproj.hom_basis.calls": "count",
    "preproj.hom_basis.s": "s",
    "preproj.hom_basis.self_s": "s",
    "preproj.hom_basis.dim_sum": "count",
    "preproj.end_algebra.calls": "count",
    "preproj.end_algebra.s": "s",
    "preproj.end_algebra.self_s": "s",
    "preproj.end_algebra.dim_sum": "count",
    "preproj.split.calls": "count",
    "preproj.split.s": "s",
    "preproj.split.self_s": "s",
    "preproj.split.hit_ratio": "ratio",
    "preproj.decompose.s": "s",
    "preproj.decompose.summands": "count",
    "preproj.is_indecomposable.calls": "count",
    "preproj.is_indecomposable.s": "s",
    "preproj.apply_gv.calls": "count",
    "preproj.apply_gv.s": "s",
    "preproj.is_isomorphic.calls": "count",
    "preproj.is_isomorphic.s": "s",
    "preproj.is_isomorphic.self_s": "s",
    "preproj.is_isomorphic.rank_calls": "count",
    "moduli.framed_equivalent.calls": "count",
    "moduli.framed_equivalent.s": "s",
    "moduli.framed_equivalent.self_s": "s",
    "moduli.framed_equivalent.rank_calls": "count",
    "moduli.framed_point.calls": "count",
    "moduli.framed_point.s": "s",
    "moduli.framed_point.self_s": "s",
    "moduli.is_stable.calls": "count",
    "moduli.is_stable.s": "s",
    "moduli.is_stable.self_s": "s",
    "moduli.young_module.calls": "count",
    "moduli.young_module.s": "s",
    "moduli.young_module.self_s": "s",
    "euclid.to_quiver.calls": "count",
    "euclid.to_quiver.s": "s",
    "euclid.from_quiver.calls": "count",
    "euclid.from_quiver.s": "s",
    "euclid.validate.calls": "count",
    "euclid.validate.s": "s",
    "quiver.double_arrows.calls": "count",
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "cli.main.s": "s",
    "trace.overhead_ratio": "ratio",
}


class SetupError(Exception):
    """The checkout cannot be measured (exit 2, no result)."""


def fresh_import() -> SimpleNamespace:
    """Import e2quiver from scratch and check that it is the working copy's."""
    for name in [n for n in sys.modules if n == "e2quiver" or n.startswith("e2quiver.")]:
        del sys.modules[name]
    try:
        package = importlib.import_module("e2quiver")
    except ImportError as exc:
        raise SetupError(f"cannot import e2quiver from {SRC}: {exc}") from exc
    where = Path(package.__file__).resolve()
    if where != (SRC / "e2quiver" / "__init__.py").resolve():
        raise SetupError(f"e2quiver resolves to {where}, not to the working copy under {SRC}")
    return SimpleNamespace(package=package, **{n: importlib.import_module(f"e2quiver.{n}") for n in LAYERS})


def set_up(name: str, seed: int, seconds: float, clock: calibrate.Clock):
    """Import and build the inputs SETUP_REPS times; keep the last.  Returns
    each repetition's wall time and its time in reference seconds, scaled by
    the two chunks timed just before it and the two just after."""
    wall, scaled = [], []
    clock.tick()
    clock.tick()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        lib = fresh_import()
        workload = workloads.build(name, lib, seed, seconds, ROOT, OUT / f"cli-{seed}")
        wall.append(time.perf_counter() - t0)
        clock.tick()
        clock.tick()
        scaled.append(wall[-1] * clock.reference_s / statistics.median(clock.samples[-4:]))
    return lib, workload, wall, scaled


def run_items(items, seconds: float | None, clock: calibrate.Clock, tracer: spans.Tracer | None = None):
    """Run items in order, timing each call and then checking its output.

    With ``seconds`` the loop cycles through the items in passes until that
    much item time has passed and at least one whole pass is done; without
    it, it runs one pass.  A reference chunk is timed on ``clock`` between
    items.  A tracer records the calls but not the checks.  Returns (wall
    time, time in reference seconds, chunks timed before it) per run, in run
    order (run n is item n mod len(items)), and the failures.
    """
    runs, positions, failures = [], [], []
    busy = 0.0
    clock.tick()
    while len(runs) < len(items) or (seconds is not None and busy < seconds):
        item = items[len(runs) % len(items)]
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = item.run()
            error = None
        except Exception as exc:  # a failing item is counted, not fatal
            error = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        busy += dt
        runs.append(dt)
        positions.append(len(clock.samples))
        clock.after(dt)
        if error is None:
            try:
                error = item.check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append({"item": item.name, "run": len(runs) - 1, "error": error})
    clock.tick()
    return [(dt, dt * clock.scale(p), p) for dt, p in zip(runs, positions)], failures


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten values
    beyond it: the eleventh-largest value (the largest when there are fewer
    than eleven)."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - 10)
    return 100 * rank / len(ordered), ordered[rank - 1]


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024


def latency_metrics(runs, failures, distinct: int, column: int) -> dict:
    """Rate, median and tail over the distinct items, an item's latency
    being the mean of its runs; ``column`` 0 takes wall times, 1 reference
    seconds.  The rate counts the items that never failed."""
    per_item: dict[int, list[float]] = {}
    for n, run in enumerate(runs):
        per_item.setdefault(n % distinct, []).append(run[column])
    latency = [statistics.fmean(v) for v in per_item.values()]
    failed_items = {f["run"] % distinct for f in failures}
    percentile, tail_value = tail(latency)
    return {
        "items_per_s": (len(latency) - len(failed_items)) / sum(latency),
        "item_p50_s": statistics.median(latency),
        "item_tail_s": tail_value,
        "tail_percentile": percentile,
        "samples": len(latency),
    }


def end_to_end(runs, failures, distinct: int, setup_wall, setup_scaled, clock) -> tuple[dict, dict]:
    """The end-to-end metrics, times in reference seconds (see
    calibrate.py); the run record keeps the wall-clock figures beside them."""
    scaled = latency_metrics(runs, failures, distinct, 1)
    wall = latency_metrics(runs, failures, distinct, 0)
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "items_per_s": (scaled["items_per_s"], "1/s"),
        "item_p50_s": (scaled["item_p50_s"], "s"),
        "item_tail_s": (scaled["item_tail_s"], "s"),
        "ok_ratio": ((len(runs) - len(failures)) / len(runs), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    samples = {name: scaled["samples"] for name in metrics}
    samples.update(setup_s=len(setup_scaled), ok_ratio=len(runs), peak_rss_mb=1)
    runs_per_item = [len(range(j, len(runs), distinct)) for j in range(min(distinct, len(runs)))]
    info = {
        "tail_percentile": scaled["tail_percentile"],
        "samples": samples,
        "runs_per_item": [min(runs_per_item), max(runs_per_item)],
        "fail_ratio": len(failures) / len(runs),
        "wall_clock": {
            "setup_s": statistics.median(setup_wall),
            **{k: wall[k] for k in ("items_per_s", "item_p50_s", "item_tail_s")},
        },
        "reference_chunks": len(clock.samples),
        "reference_chunk_mean_s": clock.mean(),
        "host_speed": clock.reference_s / clock.mean(),
    }
    trail = {
        "runs": [[n % distinct, run[0], run[2]] for n, run in enumerate(runs)],
        "reference_chunks_s": clock.samples,
    }
    return metrics, info, trail


def per_layer(agg: dict, probe: dict, overhead: float) -> dict:
    def get(group: str, key: str) -> float:
        return agg.get(group, {}).get(key, 0)

    metrics = {}
    for name, unit in PER_LAYER.items():
        group, _, key = name.rpartition(".")
        if key == "dim_sum":
            value = get(group, "dim")
        elif key == "hit_ratio":
            calls = get(group, "calls")
            value = get(group, "hit") / calls if calls else 0.0
        elif name == "cli.main.s":
            calls = get("cli.main", "calls")
            value = get("cli.main", "s") / calls if calls else 0.0
        elif group == "cli":
            value = probe.get(name, 0.0)
        elif name == "trace.overhead_ratio":
            value = overhead
        else:
            value = get(group, key)
        metrics[name] = (value, unit)
    return metrics


def traced_run(workload, clock: calibrate.Clock):
    """The fixed pass untraced, then traced.  Returns the items attempted in
    both passes, the failures, the per-layer metrics and the tracer."""
    untraced, untraced_failures = run_items(workload.traced, None, clock)
    tracer = spans.Tracer()
    tracer.install()
    try:
        escaped = spans.untraced_bindings()
        traced, failures = run_items(workload.traced, None, clock, tracer)
    finally:
        tracer.uninstall()
    failures = [dict(f, phase="untraced") for f in untraced_failures] + failures
    failures += [{"item": binding, "error": "binding not traced"} for binding in escaped]
    probe = workload.probe() if workload.probe else {}
    overhead = sum(r[1] for r in untraced) / sum(r[1] for r in traced)
    metrics = per_layer(spans.aggregate(tracer.spans), probe, overhead)
    return len(untraced) + len(traced), failures, metrics, tracer


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "e2quiver").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "e2quiver" / "__init__.py").is_file():
        print(f"no e2quiver package under {SRC}: run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        clock = calibrate.Clock()
        lib, workload, setup_wall, setup_scaled = set_up(args.workload, args.seed, args.seconds, clock)
        meta = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "e2quiver_file": str(Path(lib.package.__file__).resolve().relative_to(ROOT)),
            "commit": commit(),
            "src_sha256": source_digest(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "setup_reps": len(setup_wall),
        }
        if args.workload == "cli":
            child = workloads.child_import_path(ROOT)
            if not child or Path(child).resolve() != (SRC / "e2quiver" / "__init__.py").resolve():
                raise SetupError(f"CLI children import e2quiver from {child or 'nowhere'}, not from {SRC}")
            meta["child_e2quiver_file"] = str(Path(child).resolve().relative_to(ROOT))
    except SetupError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    if args.workload == "cli" and not args.trace:  # items are child processes
        clock = calibrate.Clock(lambda: workloads.child_start(ROOT), calibrate.CHILD_REFERENCE_S, calibrate.CHILD_EVERY_S)
    if args.trace:
        attempted, failures, metrics, tracer = traced_run(workload, clock)
        meta["traced_pass_items"] = len(workload.traced)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")
    else:
        runs, failures = run_items(workload.items, args.seconds, clock)
        attempted = len(runs)
        metrics, info, trail = end_to_end(runs, failures, len(workload.items), setup_wall, setup_scaled, clock)
        meta.update(info)
        meta["distinct_items"] = min(attempted, len(workload.items))
    meta["attempted"] = attempted
    meta["failures"] = failures
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "result": result}, indent=2) + "\n", encoding="utf-8")
    if not args.trace:
        timings = OUT / f"{args.workload}-seed{args.seed}-timings.json"
        timings.write_text(json.dumps(trail) + "\n", encoding="utf-8")
    print(json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
