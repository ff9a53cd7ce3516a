"""Command-line front end: every pipeline behind a subcommand with JSON I/O.

Each invocation emits a single pretty-printed JSON document with stable key
ordering on standard output.  Exit codes: 0 on success, 1 on domain errors
(any ``ValueError``: invalid module, relation violation, input over a size
limit) with a JSON error document, 2 on usage errors and malformed JSON,
input nested too deeply to parse included (with a one-line diagnostic on
standard error).  When the reader closes standard output early the exit
code is 1, with no traceback.  Randomized subcommands take --seed and
produce byte-identical output for identical seeds.
"""

from __future__ import annotations

import argparse
import functools
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


def _parse_json(text: str):
    """json.loads, with input nested deeper than the parser can go reported
    as malformed JSON rather than as a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("arrays or objects nested too deeply", text, 0) from None


def _encoded(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _load(kind, args: argparse.Namespace, count: int = 1):
    """The --module input of a command read as kind (a class with
    from_json_dict), or the list of both inputs when count is 2."""
    if len(args.module) != count:
        raise ValueError("this command takes " + ("exactly one --module" if count == 1 else "--module twice (two inputs)"))
    loaded = [kind.from_json_dict(_parse_json(_read_source(path))) for path in args.module]
    return loaded[0] if count == 1 else loaded


def _int_array(text: str, flag: str) -> list[int]:
    data = _parse_json(text)
    if not isinstance(data, list):
        raise ValueError(f"{flag} expects a JSON array of integers")
    return [json_int(v, f"{flag} entry") for v in data]


def _partition(args: argparse.Namespace) -> Partition:
    parts = _int_array(args.partition, "--partition")
    check_size("partition size", sum(parts))
    return Partition(tuple(parts))


# --- subcommand handlers ---------------------------------------------------


def _cmd_verify(args):
    violations = euclid.validate(_load(EuclideanModule, args))
    return {"valid": not violations, "violations": violations}, 1 if violations else 0


def _cmd_to_quiver(args):
    return euclid.to_quiver(_load(EuclideanModule, args)).to_json_dict()


def _cmd_from_quiver(args):
    return euclid.from_quiver(_load(QuiverRep, args)).to_json_dict()


def _cmd_shift(args):
    m = _load(EuclideanModule, args)
    euclid._require_valid(m)
    return euclid.char_shift(m, args.weight).to_json_dict()


def _cmd_young(args):
    gs = moduli.young_module(_partition(args), args.weight)
    return {
        "module": gs.module.to_json_dict(),
        "dims": gs.module.dims.to_json_dict(),
        "generators": [
            {"weight": k, "vector": [str(c) for c in coords]} for k, coords in gs.generators
        ],
    }


def _cmd_residue_dims(args):
    return {"dims": moduli.residue_dim_vector(_partition(args), args.weight).to_json_dict()}


def _cmd_enumerate_thin(args):
    window = Window(*args.window)
    docs = [dict(rep.to_json_dict(), indecomposable=True) for rep in moduli.enumerate_thin_indecomposables(window)]
    if args.include_decomposables:
        docs += [dict(rep.to_json_dict(), indecomposable=False) for rep in moduli.enumerate_thin_decomposables(window)]
    return docs


def _cmd_stable(args):
    return {"stable": moduli.is_stable(_load(FramedPoint, args))}


def _cmd_dim_formula(args):
    v = DimensionVector.from_json_dict(_parse_json(args.v))
    w = DimensionVector.from_json_dict(_parse_json(args.w))
    value = moduli.nakajima_dim(v, w)
    return {"dimension": value, "empty_advisory": value < 0}


def _cmd_iso(args):
    x, y = _load(QuiverRep, args, count=2)
    return {"isomorphic": preproj.is_isomorphic(x, y, seed=args.seed, exhaustive=args.exhaustive)}


def _cmd_framed_iso(args):
    p, q = _load(FramedPoint, args, count=2)
    return {"equivalent": moduli.framed_equivalent(p, q, seed=args.seed, exhaustive=args.exhaustive)}


def _cmd_decompose(args):
    docs = [dict(part.to_json_dict(), verdict=verdict) for part, verdict in preproj._decompose(_load(QuiverRep, args))]
    complete = all(doc["verdict"] == preproj.INDECOMPOSABLE for doc in docs)
    return {"summands": docs, "count": len(docs), "complete": complete}


def _cmd_end_algebra(args):
    end = preproj.end_algebra(_load(QuiverRep, args))
    return {
        "dim": end.dim,
        "radical_dim": end.radical_dim,
        "semisimple_quotient_dim": end.semisimple_quotient_dim,
    }


def _cmd_apply_word(args):
    m = _load(EuclideanModule, args)
    euclid._require_valid(m)
    word = _parse_json(args.word)
    if not isinstance(word, list) or not all(isinstance(w, str) for w in word):
        raise ValueError("--word expects a JSON array of letters")
    v = euclid.graded_vector(_parse_json(args.vector))
    result = euclid.apply_word(m, word, v)
    return {"result": {str(k): [str(c) for c in coords] for k, coords in sorted(result.items())}}


def _cmd_weight_runs(args):
    report = euclid.weight_runs(_int_array(args.set, "--set"))
    return {
        "runs": [[s, e] for s, e in report.runs],
        "max_run_length": report.max_run_length,
        "finite_type_guarantee": report.finite_type_guarantee,
    }


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process: built on the first call to main, since
    parsing leaves it unchanged."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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
    """Run the subcommand and print its document: the handler returns the
    document, or (document, exit code) when the code can be nonzero."""
    try:
        result = args.func(args)
        doc, code = result if isinstance(result, tuple) else (result, 0)
        text = _encoded(doc)
    except json.JSONDecodeError as exc:
        print(f"malformed JSON input: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # an input that describes an invalid object or is over a documented
        # size limit, or a result with an int too long to convert to a string
        text, code = _encoded({"error": str(exc)}), 1
    print(text)
    return code


def console_main() -> None:
    raise SystemExit(main())
