"""The four benchmark workloads: inputs built from a seed, a timed run per
item (a library call, a short chain of calls, or one CLI process), and an
output check per item.

``build`` runs during set-up on freshly imported modules (``lib``).  Items
call the library through its modules at call time (``preproj.decompose(x)``),
which is what lets the tracer see the calls it wraps.  Every item's ``run``
is timed; its ``check`` is not, and returns a description of what is wrong,
or None.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass
class Item:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


@dataclass
class Workload:
    items: list[Item]
    """The run's distinct items.  A run cycles through them in passes, at
    least one, so each item runs once or more, its runs spread over the run."""
    traced: list[Item]
    """The pass the traced run measures, once untraced and once traced.  It
    depends only on the seed and the run length, so its counts repeat."""
    probe: Callable[[], dict[str, float]] | None = None
    """Extra per-layer measurements taken outside the traced pass."""


# A run's distinct items take about PASS_SHARE of its seconds at reference
# speed (calibrate.py), so that one whole pass fits even when the host runs
# slower than that; the run cycles through them until its seconds are used.
PASS_SHARE = 0.75

# Items each workload completes per reference second.  With PASS_SHARE they
# size a run's distinct items, which must not depend on the speed of the run
# itself.
NOMINAL_RATE = {"krull_schmidt": 12.0, "orbit_tests": 7.1, "young_moduli": 150.0, "cli": 7.0}


def _thin_pools(lib):
    """The thin indecomposables of the windows [0,4] and [-2,1]."""
    enum = lib.moduli.enumerate_thin_indecomposables
    Window = lib.quiver.Window
    return enum(Window(0, 4)), enum(Window(-2, 1))


def _direct_sum(lib, summands):
    total = summands[0]
    for s in summands[1:]:
        total = lib.preproj.direct_sum(total, s)
    return total


def _hide(lib, x, rng):
    """x conjugated by a seeded base change, which hides its block structure."""
    return lib.preproj.apply_gv(x, lib.preproj.random_gv(x, rng))


class _Deck:
    """Deals the members of a pool so that each is used about equally often
    over a run: a seeded shuffle, dealt in order and shuffled again when
    spent.  This keeps the run's mix of summands, and so its cost, close
    from seed to seed."""

    def __init__(self, size: int, rng: random.Random):
        self.size, self.rng, self.cards = size, rng, []

    def deal(self, n: int) -> list[int]:
        """n distinct members (n < size)."""
        picks: list[int] = []
        while len(picks) < n:
            if not self.cards:
                self.cards = list(range(self.size))
                self.rng.shuffle(self.cards)
            card = self.cards.pop()
            if card in picks:  # dealt again right after a shuffle
                self.cards.insert(0, card)
            else:
                picks.append(card)
        return picks


def _decks(pools, rng) -> tuple[_Deck, _Deck]:
    return _Deck(len(pools[0]), rng), _Deck(len(pools[1]), rng)


def _distinct_summands(rng, decks, k):
    """k pairwise distinct thin indecomposables, alternating between the two
    windows, as (pool index, member index) pairs."""
    picks = [(0, i) for i in decks[0].deal((k + 1) // 2)]
    picks += [(1, i) for i in decks[1].deal(k // 2)]
    rng.shuffle(picks)
    return picks


def _dims_key(x) -> tuple:
    return tuple(sorted(x.dims.items()))


# --- krull_schmidt ---------------------------------------------------------

# ("sum", k): k distinct thin summands; ("iso", k): k copies of young(3,2,1).
# One item's time varies by a factor of 3-8 with the summands and the
# conjugation alone, so a run must hold a few hundred items for its median
# and tail to repeat from seed to seed, and its slowest kind must not have a
# long tail of its own.  In reference seconds (calibrate.py) the k=3 sums
# take about 0.05 s (0.02-0.15 s) and the isotypic k=2 sums 0.095 s
# (0.02-0.17 s).  Three isotypic items to one sum put the median inside the
# isotypic kind; at one to one it fell between the two kinds and moved by
# 0.08 of its value from seed to seed.  Larger items stay out.  The k=4
# sums take 0.25 s but 0.09-0.74 s, and with them in the schedule the tail
# moved by 0.1-0.15 of its median from seed to seed; k=5 sums take 0.8-2.3
# s, k=6 3-8 s, and isotypic k=3 sums 0.7-1.6 s, too slow for a run to hold
# many.
KS_SCHEDULE = [("sum", 3), ("iso", 2), ("iso", 2), ("iso", 2)]


def _krull_schmidt_item(lib, name, hidden, summands) -> Item:
    expected_dims = sorted(_dims_key(s) for s in summands)

    def run():
        return lib.preproj.decompose(hidden)

    def check(parts):
        if len(parts) != len(summands):
            return f"{len(parts)} summands, expected {len(summands)}"
        if sorted(_dims_key(p) for p in parts) != expected_dims:
            return "summand dimension vectors differ from the constructed ones"
        unused = list(summands)
        for part in parts:
            match = next(
                (i for i, s in enumerate(unused) if s.dims == part.dims and lib.preproj.is_isomorphic(part, s)),
                None,
            )
            if match is None:
                return "a recovered summand matches no constructed one"
            unused.pop(match)
        return None

    return Item(name, run, check)


def build_krull_schmidt(lib, seed: int, count: int) -> list[Item]:
    rng = random.Random(seed)
    pools = _thin_pools(lib)
    decks = _decks(pools, rng)
    young = lib.euclid.to_quiver(lib.moduli.young_module(lib.moduli.Partition((3, 2, 1)), 0).module)
    items = []
    for n in range(count):
        kind, k = KS_SCHEDULE[n % len(KS_SCHEDULE)]
        if kind == "sum":
            summands = [pools[p][i] for p, i in _distinct_summands(rng, decks, k)]
        else:
            summands = [young] * k
        hidden = _hide(lib, _direct_sum(lib, summands), rng)
        items.append(_krull_schmidt_item(lib, f"{n}:{kind}{k}", hidden, summands))
    return items


# --- orbit_tests -----------------------------------------------------------

# ("pos", k): (X, g.X) for a hidden sum of k distinct thin summands.
# ("neg", k): X and Y differ in one summand of the same dimension vector.
# ("neg_eq", k): as "neg", with all Hom dimensions that is_isomorphic
# compares equal, so it runs every Monte Carlo trial.  In reference seconds
# the negatives take about 0.06 s (0.03-0.17 s), the positives 0.16 s
# (0.06-0.31 s) and the equal-Hom negatives 0.2 s (0.11-0.37 s).  Larger
# items stay out for the reason given for krull_schmidt: k=5 negatives take
# 0.25 s but 0.12-0.64 s, and with them in the schedule the tail moved by
# 0.09 of its median from seed to seed; k=5 positives and equal-Hom
# negatives take 0.5-1 s, k=6 positives 1.5-2.3 s, k=7 5-12 s.
OT_SCHEDULE = [("pos", 4), ("neg", 4), ("neg_eq", 4)]


class _HomTable:
    """Hom dimensions between pool members, computed on demand."""

    def __init__(self, lib, pools):
        self.lib, self.pools, self.dims = lib, pools, {}

    def __call__(self, a, b) -> int:
        if (a, b) not in self.dims:
            x, y = self.pools[a[0]][a[1]], self.pools[b[0]][b[1]]
            self.dims[(a, b)] = self.lib.preproj.hom_basis(x, y).dim
        return self.dims[(a, b)]


def _negative_pair(rng, decks, hom, k, equal_hom):
    """Summand lists (a + rest, b + rest), with a != b two thin summands on
    the window [0,4] (so the dimension vectors agree) that are not in rest.
    With equal_hom, dim Hom(X,Y) = dim Hom(Y,X) and dim End X = dim End Y;
    without it, they differ."""
    while True:
        picks = _distinct_summands(rng, decks, k + 1)
        firsts = [p for p in picks if p[0] == 0]
        a, b = firsts[0], firsts[1]
        rest = [p for p in picks if p not in (a, b)]

        def hom_in(s):
            return sum(hom(s, r) for r in rest)

        def hom_out(s):
            return sum(hom(r, s) for r in rest)

        same = (
            hom(a, b) == hom(b, a)
            and hom_in(a) + hom_out(b) == hom_in(b) + hom_out(a)
            and hom(a, a) + hom_in(a) + hom_out(a) == hom(b, b) + hom_in(b) + hom_out(b)
        )
        if same == equal_hom:
            return [a] + rest, [b] + rest


def build_orbit_tests(lib, seed: int, count: int) -> list[Item]:
    rng = random.Random(seed)
    pools = _thin_pools(lib)
    decks = _decks(pools, rng)
    hom = _HomTable(lib, pools)
    items = []
    for n in range(count):
        kind, k = OT_SCHEDULE[n % len(OT_SCHEDULE)]
        if kind == "pos":
            x = _hide(lib, _direct_sum(lib, [pools[p][i] for p, i in _distinct_summands(rng, decks, k)]), rng)
            y = _hide(lib, x, rng)
        else:
            left, right = _negative_pair(rng, decks, hom, k, kind == "neg_eq")
            x = _hide(lib, _direct_sum(lib, [pools[p][i] for p, i in left]), rng)
            y = _hide(lib, _direct_sum(lib, [pools[p][i] for p, i in right]), rng)
        expected = kind == "pos"

        def run(x=x, y=y):
            return lib.preproj.is_isomorphic(x, y)

        def check(verdict, expected=expected):
            return None if verdict is expected else f"is_isomorphic gave {verdict}, expected {expected}"

        items.append(Item(f"{n}:{kind}{k}", run, check))
    return items


# --- young_moduli ----------------------------------------------------------

YM_BOXES = 8
YM_STAIRCASES = 7  # staircases (n, n-1, ..., 1) up to 28 boxes
YM_ANCHORS = 3


def _young_item(lib, p, a, rng) -> Item:
    moduli, euclid, preproj = lib.moduli, lib.euclid, lib.preproj
    Matrix = lib.linalg.Matrix
    base = moduli.framed_point(moduli.young_module(p, a))
    conjugated = moduli.apply_gv_framed(base, preproj.random_gv(base.rep, rng))
    # A framing vector with no corner-box component lies in the span of the
    # other boxes, a proper submodule, so the re-marked point is unstable.
    column = [0] + [rng.randint(-2, 2) for _ in range(base.rep.dim(a) - 1)]
    remarked = moduli.FramedPoint(base.rep, base.framing_dims, {a: Matrix.from_columns([column])})

    def run():
        gs = moduli.young_module(p, a)
        problems = euclid.validate(gs.module)
        x = euclid.to_quiver(gs.module)
        back = euclid.from_quiver(x)
        point = moduli.framed_point(gs)
        return {
            "problems": problems,
            "round_trip": back == gs.module and back.to_json_dict() == gs.module.to_json_dict(),
            "stable": moduli.is_stable(point),
            "peeled": moduli.single_generator_check(gs.module.dims, a),
            "dimension": moduli.nakajima_dim(gs.module.dims, gs.framing_dims()),
            "conjugate": moduli.framed_equivalent(point, conjugated),
            "remarked": moduli.framed_equivalent(point, remarked),
        }

    def check(out):
        expected = {"problems": [], "round_trip": True, "stable": True, "peeled": p, "dimension": 0,
                    "conjugate": True, "remarked": False}
        wrong = [key for key, value in expected.items() if out[key] != value]
        return f"unexpected {', '.join(wrong)}" if wrong else None

    return Item(f"{p.parts}@{a}", run, check)


def build_young_moduli(lib, seed: int) -> list[Item]:
    rng = random.Random(seed)
    Partition = lib.moduli.Partition
    diagrams = list(lib.moduli.partitions_up_to(YM_BOXES))
    diagrams += [Partition(tuple(range(n, 0, -1))) for n in range(1, YM_STAIRCASES + 1)]
    anchors = rng.sample(range(-3, 4), YM_ANCHORS)
    cases = [(p, a) for a in anchors for p in diagrams]
    rng.shuffle(cases)
    return [_young_item(lib, p, a, rng) for p, a in cases]


# --- cli -------------------------------------------------------------------

CLI_SETS = 2


def _cli_inputs(lib, rng) -> dict[str, Any]:
    """Small input documents for the subcommands that read files."""
    moduli, preproj = lib.moduli, lib.preproj
    small = moduli.partitions_up_to(4)
    p = small[rng.randrange(len(small))]
    a = rng.randint(-2, 2)
    gs = moduli.young_module(p, a)
    point = moduli.framed_point(gs)
    first, second = _thin_pools(lib)
    pair = _direct_sum(lib, [first[rng.randrange(len(first))], second[rng.randrange(len(second))]])
    hidden = _hide(lib, pair, rng)
    return {
        "partition": list(p.parts),
        "anchor": a,
        "module": gs.module.to_json_dict(),
        "rep": point.rep.to_json_dict(),
        "rep_conj": _hide(lib, point.rep, rng).to_json_dict(),
        "framed": point.to_json_dict(),
        "framed_conj": moduli.apply_gv_framed(point, preproj.random_gv(point.rep, rng)).to_json_dict(),
        "sum": hidden.to_json_dict(),
    }


def _cli_commands(inputs: dict[str, Any], files: dict[str, str], rng) -> list[list[str]]:
    """One argument list per subcommand, all 15 of them, each exiting 0."""
    partition = json.dumps(inputs["partition"])
    a = str(inputs["anchor"])
    low = rng.randint(-2, 1)
    weights = sorted(rng.sample(range(-4, 8), 6))
    return [
        ["verify", "--module", files["module"]],
        ["to-quiver", "--module", files["module"]],
        ["from-quiver", "--module", files["rep"]],
        ["shift", "--module", files["module"], "--weight", str(rng.randint(-3, 3))],
        ["young", "--partition", partition, "--weight", a],
        ["residue-dims", "--partition", partition, "--weight", a],
        ["enumerate-thin", "--window", str(low), str(low + 2), "--include-decomposables"],
        ["stable", "--module", files["framed"]],
        ["dim-formula", "--v", json.dumps(inputs["module"]["dims"]), "--w", json.dumps({a: 1})],
        ["iso", "--module", files["rep"], "--module", files["rep_conj"], "--seed", str(rng.randint(0, 99))],
        ["framed-iso", "--module", files["framed"], "--module", files["framed_conj"]],
        ["decompose", "--module", files["sum"]],
        ["end-algebra", "--module", files["sum"]],
        ["apply-word", "--module", files["module"], "--word", '["P+", "P-"]',
         "--vector", json.dumps({a: ["1"] + ["0"] * (inputs["module"]["dims"][a] - 1)})],
        ["weight-runs", "--set", json.dumps(weights)],
    ]


def _in_process(lib, argv: list[str]) -> tuple[int, bytes]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = lib.cli.main(argv)
    return code, buffer.getvalue().encode("utf-8")


def child_env(root: Path) -> dict[str, str]:
    """Environment for child interpreters: the working copy's src/ first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _child(args: list[str], root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=root, env=child_env(root), capture_output=True, timeout=120, check=False
    )


def build_cli(lib, seed: int, root: Path, workdir: Path) -> tuple[list[Item], list[Item]]:
    """Child-process items, CLI_SETS input sets of the 15 subcommands each,
    and for the traced pass the same subcommands through ``cli.main`` in
    this process.  Expected outputs come from ``cli.main`` here, captured
    during set-up."""
    rng = random.Random(seed)
    children, in_process = [], []
    for n in range(CLI_SETS):
        inputs = _cli_inputs(lib, rng)
        folder = workdir / f"set{n}"
        folder.mkdir(parents=True, exist_ok=True)
        files = {}
        for key in ("module", "rep", "rep_conj", "framed", "framed_conj", "sum"):
            path = folder / f"{key}.json"
            path.write_text(json.dumps(inputs[key]), encoding="utf-8")
            files[key] = str(path.relative_to(root))
        for argv in _cli_commands(inputs, files, rng):
            code, want = _in_process(lib, argv)
            if code != 0:
                raise RuntimeError(f"set-up: cli {argv[0]} exited {code} in process")

            def run_child(argv=argv):
                return _child(["-m", "e2quiver", *argv], root)

            def check_child(proc, want=want):
                if proc.returncode != 0:
                    return f"exit {proc.returncode}: {proc.stderr.decode(errors='replace').strip()[-200:]}"
                return None if proc.stdout == want else "stdout differs from in-process cli.main"

            def run_main(argv=argv):
                return _in_process(lib, argv)

            def check_main(result, want=want):
                return None if result == (0, want) else "in-process cli.main output changed"

            name = f"{n}:{argv[0]}"
            children.append(Item(name, run_child, check_child))
            in_process.append(Item(name, run_main, check_main))
    return children, in_process


CLI_PROBE_ROUNDS = 5


def cli_probe(root: Path) -> dict[str, float]:
    """Median bare interpreter start and median import time of e2quiver.cli,
    each in a fresh child."""
    interp, imports = [], []
    timer = "import time; t = time.perf_counter(); import e2quiver.cli; print(time.perf_counter() - t)"
    for _ in range(CLI_PROBE_ROUNDS):
        t0 = time.perf_counter()
        _child(["-c", "pass"], root)
        interp.append(time.perf_counter() - t0)
        imports.append(float(_child(["-c", timer], root).stdout))
    return {"cli.interp_s": statistics.median(interp), "cli.import_s": statistics.median(imports)}


def child_start(root: Path) -> None:
    """A bare child interpreter with the children's environment: the
    reference chunk of the cli workload (calibrate.py)."""
    proc = _child(["-c", "pass"], root)
    if proc.returncode != 0:
        raise RuntimeError(f"bare child interpreter exited {proc.returncode}")


def child_import_path(root: Path) -> str:
    """Where a child interpreter with the benchmark's environment finds e2quiver."""
    proc = _child(["-c", "import e2quiver; print(e2quiver.__file__)"], root)
    return proc.stdout.decode().strip() if proc.returncode == 0 else ""


def build(name: str, lib, seed: int, seconds: float, root: Path, workdir: Path) -> Workload:
    """The workload's inputs for one run of the given length: whole rounds of
    its schedule, as many as PASS_SHARE of the run fills at nominal speed."""
    def rounds(schedule_length: int) -> int:
        return schedule_length * max(1, int(NOMINAL_RATE[name] * seconds * PASS_SHARE / schedule_length))

    if name == "krull_schmidt":
        items = build_krull_schmidt(lib, seed, rounds(len(KS_SCHEDULE)))
    elif name == "orbit_tests":
        items = build_orbit_tests(lib, seed, rounds(len(OT_SCHEDULE)))
    elif name == "young_moduli":
        items = build_young_moduli(lib, seed)
    elif name == "cli":
        items, in_process = build_cli(lib, seed, root, workdir)
        return Workload(items, in_process, lambda: cli_probe(root))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(items, items)


WORKLOADS = tuple(NOMINAL_RATE)
