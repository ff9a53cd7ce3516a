"""Parent/change A/B of the benchmark, in alternating pairs.

    python3 tools/ab.py --name int_matrix --what "what the change does" \\
        --seed 31337 --pairs krull_schmidt=10 orbit_tests=3 young_moduli=3 cli=3

Runs ``bench/run.py --trace 0`` for ``run_seconds`` of ``BENCHMARK.json``
on a ``git archive`` of the parent commit (HEAD) and on a copy of the
working tree (tracked and untracked files that git does not ignore), each
side from its own directory under ``--workdir``.  One run at a time;
within a workload, pair i runs the parent first when i is odd and the
change first when it is even.  Every run
is kept, a lost or failed one included, and ``BENCH_<name>.json`` at the
root of the repository is rewritten after each pair, in the schema of the
other ``BENCH_*.json`` files: ``what``, ``parent``, ``change``, ``command``,
``seed``, ``host``, ``summary`` and ``runs``, and ``src_lines``, each
side's total line count of ``src/**/*.py``, and ``src_code_lines``, each
side's count of those lines that hold code: not blank, not comment-only
and not inside a module, class or function docstring.

For each workload and end-to-end metric the summary holds both medians,
their inclusive quartiles (``statistics.quantiles(n=4,
method='inclusive')``), the ratio change / parent of the medians, the pairs
the change wins (strictly better in the metric's direction, from
``BENCHMARK.json``), and whether the result is resolved: the medians differ
by more than the parent's q3 - q1.  Beside them it keeps each run's
wall-clock ``items_per_s``, its run count (``attempted``) and its host
speed, since the end-to-end rates are scaled to reference seconds.  At the
end the script prints the summary as a Markdown table, and the two sides'
``src/`` line and code-line counts under it.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> list[float]:
    """q1 and q3, inclusive method; a single value is its own quartiles."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize_metric(parent: list[float], change: list[float], better: str) -> dict:
    """One metric over pairs: parent[i] and change[i] are the two runs of pair i."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = quartiles(parent)
    wins = sum((c > p) if better == "higher" else (c < p) for p, c in zip(parent, change))
    return {
        "parent_median": p_med,
        "parent_q1_q3": p_q,
        "change_median": c_med,
        "change_q1_q3": quartiles(change),
        "ratio_change_over_parent": c_med / p_med if p_med else None,
        "change_better_pairs": wins,
        "resolved": abs(c_med - p_med) > p_q[1] - p_q[0],
    }


def summarize_workload(runs: list[dict], metrics: dict[str, str]) -> dict:
    """The summary of one workload's complete pairs; metrics maps each
    end-to-end metric to its better direction."""
    pairs = sorted({r["pair"] for r in runs})
    side = {(r["side"], r["pair"]): r for r in runs}
    complete = [p for p in pairs if ("parent", p) in side and ("change", p) in side]
    ok = [p for p in complete if side["parent", p]["result"] and side["change", p]["result"]]

    def values(who: str, read) -> list:
        return [read(side[who, p]) for p in ok]

    out: dict = {"pairs": len(ok), "runs_without_result": sum(not r["result"] for r in runs)}
    if not ok:
        return out
    for name, better in metrics.items():
        read = lambda r, name=name: r["result"]["metrics"][name]["value"]
        out[name] = summarize_metric(values("parent", read), values("change", read), better)
    wall = {who: values(who, lambda r: r["record"]["wall_clock"]["items_per_s"]) for who in ("parent", "change")}
    out["wall_clock_items_per_s"] = {
        who: {"median": statistics.median(v), "q1_q3": quartiles(v)} for who, v in wall.items()
    }
    out["wall_clock_change_better_pairs"] = sum(c > p for p, c in zip(wall["parent"], wall["change"]))
    attempted = {who: values(who, lambda r: r["record"]["attempted"]) for who in ("parent", "change")}
    out["attempted_runs"] = {who: {"median": statistics.median(v), "all": v} for who, v in attempted.items()}
    out["host_speed"] = {who: values(who, lambda r: round(r["record"]["host_speed"], 3)) for who in ("parent", "change")}
    out["failed_items"] = sum(r["result"]["failed"] for r in runs if r["result"])
    return out


def table(summary: dict) -> str:
    """The summary as Markdown rows, one per workload and metric."""
    lines = [
        "| workload | metric | parent median [q1, q3] | change median [q1, q3] | change/parent | change better | resolved |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    g = lambda v: f"{v:.4g}"
    for workload, s in summary.items():
        label = f"{workload} ({s['pairs']} pairs)"
        for name, m in s.items():
            if not isinstance(m, dict) or "parent_median" not in m:
                continue
            ratio = "n/a" if m["ratio_change_over_parent"] is None else f"{m['ratio_change_over_parent']:.3f}"
            lines.append(
                f"| {label} | `{name}` | {g(m['parent_median'])} [{g(m['parent_q1_q3'][0])}, {g(m['parent_q1_q3'][1])}]"
                f" | {g(m['change_median'])} [{g(m['change_q1_q3'][0])}, {g(m['change_q1_q3'][1])}]"
                f" | {ratio} | {m['change_better_pairs']}/{s['pairs']} | {'yes' if m['resolved'] else 'no'} |"
            )
        if "wall_clock_items_per_s" in s:
            w, a = s["wall_clock_items_per_s"], s["attempted_runs"]
            lines.append(
                f"|  | wall-clock `items_per_s` / runs attempted (median) | {g(w['parent']['median'])} / {a['parent']['median']:g}"
                f" | {g(w['change']['median'])} / {a['change']['median']:g}"
                f" | {w['change']['median'] / w['parent']['median']:.3f} | {s['wall_clock_change_better_pairs']}/{s['pairs']} | |"
            )
    return "\n".join(lines)


def src_lines(checkout: Path) -> int:
    """The total line count of the Python files under checkout's src/."""
    return sum(len(path.read_bytes().splitlines()) for path in (checkout / "src").rglob("*.py"))


# Tokens that hold no code: a line with only these is blank or comment-only.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(source: bytes) -> int:
    """The lines of one Python file that hold a token of code, less those
    of its module, class and function docstrings."""
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        documented = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        if documented and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def src_code_lines(checkout: Path) -> int:
    """code_lines summed over the Python files under checkout's src/."""
    return sum(code_lines(path.read_bytes()) for path in (checkout / "src").rglob("*.py"))


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout


def export_parent(dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "HEAD"], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def copy_working_tree(dest: Path) -> None:
    for name in _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        src = ROOT / name
        if name and src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(checkout: Path, command: list[str], timeout: float) -> dict:
    """One bench run: its exit code, elapsed time, result and run record."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True, timeout=timeout)
        code, lines = proc.returncode, proc.stdout.strip().splitlines()
    except subprocess.TimeoutExpired:
        code, lines = "timeout", []
    run = {"exit": code, "elapsed_s": round(time.perf_counter() - start, 1), "result": None, "record": None}
    if code == 0 and len(lines) >= 2:
        meta, run["result"] = json.loads(lines[-2]), json.loads(lines[-1])
        run["record"] = {
            "src_sha256": meta["src_sha256"],
            "attempted": meta["attempted"],
            "runs_per_item": meta["runs_per_item"],
            "wall_clock": meta["wall_clock"],
            "host_speed": meta["host_speed"],
        }
    return run


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    parser.add_argument("--what", required=True, help="what the change does, for the file's 'what'")
    parser.add_argument("--pairs", nargs="+", required=True, metavar="WORKLOAD=N")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, default=None, help="where the two copies go (default: a new temporary directory)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    pairs = {w: int(n) for w, n in (p.split("=") for p in args.pairs)}
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="ab-"))
    sides = {"parent": workdir / "parent", "change": workdir / "change"}
    export_parent(sides["parent"])
    copy_working_tree(sides["change"])
    parent = _git("rev-parse", "--short", "HEAD").strip()
    out = ROOT / f"BENCH_{args.name}.json"
    doc = {
        "what": args.what,
        "parent": parent,
        "change": "this commit",
        "command": f"python3 bench/run.py --workload W --seed {args.seed} --seconds {seconds:g} --trace 0",
        "seed": args.seed,
        "host": {
            "machine": platform.machine(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "note": (
                "one run at a time; pairs alternate which side runs first (odd pairs the parent); each side runs "
                f"from its own copy of the files (parent: git archive of {parent}; change: the working tree). "
                "Quartiles are statistics.quantiles(n=4, method='inclusive'); 'resolved' means the medians differ "
                "by more than the parent's q3 - q1. wall_clock_items_per_s and attempted_runs are the unscaled "
                "figures of each run record. Written by tools/ab.py."
            ),
        },
        "src_lines": {who: src_lines(path) for who, path in sides.items()},
        "src_code_lines": {who: src_code_lines(path) for who, path in sides.items()},
        "summary": {},
        "runs": [],
    }
    for workload, n in pairs.items():
        command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(args.seed),
                   "--seconds", f"{seconds:g}", "--trace", "0"]
        for pair in range(1, n + 1):
            first = "parent" if pair % 2 else "change"
            for who in (first, "change" if first == "parent" else "parent"):
                run = run_once(sides[who], command, timeout=10 * seconds + 300)
                doc["runs"].append({"side": who, "workload": workload, "pair": pair, "first": first, **run})
                print(json.dumps({k: doc["runs"][-1][k] for k in ("side", "workload", "pair", "exit", "elapsed_s")}), flush=True)
            doc["summary"][workload] = summarize_workload([r for r in doc["runs"] if r["workload"] == workload], metrics)
            out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(table(doc["summary"]))
    print(f"\n`src/` lines: parent {doc['src_lines']['parent']:,}, change {doc['src_lines']['change']:,}")
    print(f"`src/` code lines: parent {doc['src_code_lines']['parent']:,}, change {doc['src_code_lines']['change']:,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
