"""Command-line front end: every pipeline behind a subcommand with JSON I/O.

Each invocation emits a single pretty-printed JSON document with stable key
ordering on standard output.  Exit codes: 0 on success, 1 on domain errors
(any ``ValueError``: invalid module, relation violation, input over a size
limit) with a JSON error document, 2 on usage errors and malformed JSON
(with a diagnostic on standard error).  When the reader closes standard
output early the exit code is 1, with no traceback.  Randomized subcommands
take --seed and produce byte-identical output for identical seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import euclid, moduli, preproj
from .euclid import EuclideanModule
from .moduli import FramedPoint, Partition
from .preproj import QuiverRep
from .quiver import DimensionVector, Window, check_size, json_int


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _load_json(path: str):
    return json.loads(_read_source(path))


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _module_arg(args: argparse.Namespace) -> str:
    paths = args.module
    if len(paths) != 1:
        raise ValueError("this command takes exactly one --module")
    return paths[0]


def _module_pair(args: argparse.Namespace) -> tuple[str, str]:
    paths = args.module
    if len(paths) != 2:
        raise ValueError("this command takes --module twice (two inputs)")
    return paths[0], paths[1]


def _euclidean(path: str) -> EuclideanModule:
    return EuclideanModule.from_json_dict(_load_json(path))


def _quiver_rep(path: str) -> QuiverRep:
    return QuiverRep.from_json_dict(_load_json(path))


def _framed(path: str) -> FramedPoint:
    return FramedPoint.from_json_dict(_load_json(path))


def _int_array(text: str, flag: str) -> list[int]:
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError(f"{flag} expects a JSON array of integers")
    return [json_int(v, f"{flag} entry") for v in data]


def _partition(args: argparse.Namespace) -> Partition:
    parts = _int_array(args.partition, "--partition")
    check_size("partition size", sum(parts))
    return Partition(tuple(parts))


# --- subcommand handlers ---------------------------------------------------


def _cmd_verify(args) -> int:
    m = _euclidean(_module_arg(args))
    violations = euclid.validate(m)
    _emit({"valid": not violations, "violations": violations})
    return 0 if not violations else 1


def _cmd_to_quiver(args) -> int:
    m = _euclidean(_module_arg(args))
    rep = euclid.to_quiver(m)
    _emit(rep.to_json_dict())
    return 0


def _cmd_from_quiver(args) -> int:
    rep = _quiver_rep(_module_arg(args))
    m = euclid.from_quiver(rep)
    _emit(m.to_json_dict())
    return 0


def _cmd_shift(args) -> int:
    m = _euclidean(_module_arg(args))
    euclid._require_valid(m)
    _emit(euclid.char_shift(m, args.weight).to_json_dict())
    return 0


def _cmd_young(args) -> int:
    p = _partition(args)
    gs = moduli.young_module(p, args.weight)
    doc = {
        "module": gs.module.to_json_dict(),
        "dims": gs.module.dims.to_json_dict(),
        "generators": [
            {"weight": k, "vector": [str(c) for c in coords]} for k, coords in gs.generators
        ],
    }
    _emit(doc)
    return 0


def _cmd_residue_dims(args) -> int:
    p = _partition(args)
    _emit({"dims": moduli.residue_dim_vector(p, args.weight).to_json_dict()})
    return 0


def _cmd_enumerate_thin(args) -> int:
    window = Window(*args.window)
    docs = []
    for rep in moduli.enumerate_thin_indecomposables(window):
        doc = rep.to_json_dict()
        doc["indecomposable"] = True
        docs.append(doc)
    if args.include_decomposables:
        for rep in moduli.enumerate_thin_decomposables(window):
            doc = rep.to_json_dict()
            doc["indecomposable"] = False
            docs.append(doc)
    _emit(docs)
    return 0


def _cmd_stable(args) -> int:
    point = _framed(_module_arg(args))
    _emit({"stable": moduli.is_stable(point)})
    return 0


def _cmd_dim_formula(args) -> int:
    v = DimensionVector.from_json_dict(json.loads(args.v))
    w = DimensionVector.from_json_dict(json.loads(args.w))
    value = moduli.nakajima_dim(v, w)
    _emit({"dimension": value, "empty_advisory": value < 0})
    return 0


def _cmd_iso(args) -> int:
    first, second = _module_pair(args)
    x = _quiver_rep(first)
    y = _quiver_rep(second)
    result = preproj.is_isomorphic(x, y, seed=args.seed, exhaustive=args.exhaustive)
    _emit({"isomorphic": result})
    return 0


def _cmd_framed_iso(args) -> int:
    first, second = _module_pair(args)
    p = _framed(first)
    q = _framed(second)
    result = moduli.framed_equivalent(p, q, seed=args.seed, exhaustive=args.exhaustive)
    _emit({"equivalent": result})
    return 0


def _cmd_decompose(args) -> int:
    x = _quiver_rep(_module_arg(args))
    docs = []
    complete = True
    for part, verdict in preproj._decompose(x):
        if verdict != preproj.INDECOMPOSABLE:
            complete = False
        doc = part.to_json_dict()
        doc["verdict"] = verdict
        docs.append(doc)
    _emit({"summands": docs, "count": len(docs), "complete": complete})
    return 0


def _cmd_end_algebra(args) -> int:
    x = _quiver_rep(_module_arg(args))
    end = preproj.end_algebra(x)
    _emit(
        {
            "dim": end.dim,
            "radical_dim": end.radical_dim,
            "semisimple_quotient_dim": end.semisimple_quotient_dim,
        }
    )
    return 0


def _cmd_apply_word(args) -> int:
    m = _euclidean(_module_arg(args))
    euclid._require_valid(m)
    word = json.loads(args.word)
    if not isinstance(word, list) or not all(isinstance(w, str) for w in word):
        raise ValueError("--word expects a JSON array of letters")
    v = euclid.graded_vector(json.loads(args.vector))
    result = euclid.apply_word(m, word, v)
    _emit({"result": {str(k): [str(c) for c in coords] for k, coords in sorted(result.items())}})
    return 0


def _cmd_weight_runs(args) -> int:
    report = euclid.weight_runs(_int_array(args.set, "--set"))
    _emit(
        {
            "runs": [[s, e] for s, e in report.runs],
            "max_run_length": report.max_run_length,
            "finite_type_guarantee": report.finite_type_guarantee,
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="e2quiver",
        description="Exact computations for Euclidean-algebra modules and "
        "preprojective-algebra representations, with JSON input and output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(func=handler)
        return cmd

    def module_flag(cmd: argparse.ArgumentParser, twice: bool = False) -> None:
        cmd.add_argument(
            "--module",
            action="append",
            required=True,
            metavar="PATH",
            help="JSON input file, or - for standard input"
            + ("; pass twice for the two inputs" if twice else ""),
        )

    def seed_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--seed", type=int, default=0, help="seed for the randomized search (default 0)")
        cmd.add_argument(
            "--exhaustive",
            action="store_true",
            help="deterministic grid search over the solution space (small instances)",
        )

    cmd = add("verify", _cmd_verify, "check the module axioms of a weight-graded module")
    module_flag(cmd)

    cmd = add("to-quiver", _cmd_to_quiver, "module to double-quiver representation")
    module_flag(cmd)

    cmd = add("from-quiver", _cmd_from_quiver, "double-quiver representation to module")
    module_flag(cmd)

    cmd = add("shift", _cmd_shift, "tensor with the weight-n character")
    module_flag(cmd)
    cmd.add_argument("--weight", type=int, required=True, help="shift amount n")

    cmd = add("young", _cmd_young, "single-generator module of a Young diagram")
    cmd.add_argument("--partition", required=True, help="JSON array, e.g. [2,1]")
    cmd.add_argument("--weight", type=int, default=0, help="generator weight (default 0)")

    cmd = add("residue-dims", _cmd_residue_dims, "residue multiplicity profile of a diagram")
    cmd.add_argument("--partition", required=True, help="JSON array, e.g. [3,1]")
    cmd.add_argument("--weight", type=int, default=0, help="anchor weight (default 0)")

    cmd = add("enumerate-thin", _cmd_enumerate_thin, "thin orbit representatives on a window")
    cmd.add_argument("--window", type=int, nargs=2, required=True, metavar=("A", "B"))
    cmd.add_argument(
        "--include-decomposables",
        action="store_true",
        help="also list the choices with a dead arrow pair (all decomposable)",
    )

    cmd = add("stable", _cmd_stable, "test the stability of a framed point")
    module_flag(cmd)

    cmd = add("dim-formula", _cmd_dim_formula, "evaluate the moduli dimension formula")
    cmd.add_argument("--v", required=True, help='dimension vector JSON, e.g. {"0":1,"1":1}')
    cmd.add_argument("--w", required=True, help="framing dimension vector JSON")

    cmd = add("iso", _cmd_iso, "isomorphism test for two representations")
    module_flag(cmd, twice=True)
    seed_flags(cmd)

    cmd = add("framed-iso", _cmd_framed_iso, "framed equivalence test for two framed points")
    module_flag(cmd, twice=True)
    seed_flags(cmd)

    cmd = add("decompose", _cmd_decompose, "split into direct summands")
    module_flag(cmd)

    cmd = add("end-algebra", _cmd_end_algebra, "endomorphism algebra invariants")
    module_flag(cmd)

    cmd = add("apply-word", _cmd_apply_word, "apply an algebra word to a graded vector")
    module_flag(cmd)
    cmd.add_argument("--word", required=True, help='JSON array of letters, e.g. ["Proj:1","P+"]')
    cmd.add_argument("--vector", required=True, help='graded vector JSON, e.g. {"0":["1"]}')

    cmd = add("weight-runs", _cmd_weight_runs, "maximal consecutive runs of a weight set")
    cmd.add_argument("--set", required=True, help="JSON array of integers, e.g. [0,1,2,5,6]")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed standard output early; what is still buffered
        # goes nowhere, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _run(args: argparse.Namespace) -> int:
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"malformed JSON input: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # a well-formed input that describes an invalid object, or one over
        # a documented size limit
        _emit({"error": str(exc)})
        return 1


def console_main() -> None:
    raise SystemExit(main())
