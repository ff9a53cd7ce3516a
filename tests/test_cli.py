import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import e2quiver
from e2quiver import preproj
from e2quiver.cli import main
from e2quiver.euclid import EuclideanModule, from_quiver, to_quiver
from e2quiver.moduli import Partition, enumerate_thin_indecomposables, framed_point, young_module
from e2quiver.preproj import QuiverRep, apply_gv, direct_sum, random_gv
from e2quiver.quiver import Window


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, f"exit {code}, stderr: {err}, stdout: {out}"
    return json.loads(out)


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def hook_module_path(tmp_path):
    gs = young_module(Partition.of(2, 1), 0)
    return write_json(tmp_path / "hook.json", gs.module.to_json_dict())


def test_verify_valid_module(capsys, hook_module_path):
    doc = run_json(capsys, "verify", "--module", hook_module_path)
    assert doc == {"valid": True, "violations": []}


def test_verify_invalid_module_exits_1(capsys, tmp_path):
    bad = {
        "dims": {"0": 1, "1": 1},
        "p_plus": {"0": [["1"]]},
        "p_minus": {"1": [["1"]]},
    }
    path = write_json(tmp_path / "bad.json", bad)
    code, out, _ = run_cli(capsys, "verify", "--module", path)
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False and doc["violations"]


@pytest.mark.parametrize("command", ["verify", "to-quiver"])
def test_zero_map_of_wrong_shape_exits_1(capsys, tmp_path, command):
    bad = {"dims": {"0": 1, "1": 1}, "p_plus": {"0": [[0, 0, 0]]}}
    path = write_json(tmp_path / "bad.json", bad)
    code, out, err = run_cli(capsys, command, "--module", path)
    assert code == 1
    assert "p_plus at weight 0 has shape (1, 3), expected (1, 1)" in out + err


def test_young_command_matches_residues(capsys):
    doc = run_json(capsys, "young", "--partition", "[2,1]", "--weight", "0")
    assert doc["dims"] == {"-1": 1, "0": 1, "1": 1}
    assert doc["generators"] == [{"weight": 0, "vector": ["1"]}]
    # emitted module re-parses to the library object
    assert EuclideanModule.from_json_dict(doc["module"]) == young_module(Partition.of(2, 1), 0).module


def test_residue_dims_command(capsys):
    doc = run_json(capsys, "residue-dims", "--partition", "[3,1]", "--weight", "2")
    assert doc == {"dims": {"1": 1, "2": 1, "3": 1, "4": 1}}


def test_enumerate_thin_sixteen(capsys):
    docs = run_json(capsys, "enumerate-thin", "--window", "0", "4")
    assert len(docs) == 16
    assert all(d["indecomposable"] is True for d in docs)
    reps = [QuiverRep.from_json_dict(d) for d in docs]
    assert len({json.dumps(r.to_json_dict(), sort_keys=True) for r in reps}) == 16


def test_enumerate_thin_with_decomposables(capsys):
    docs = run_json(capsys, "enumerate-thin", "--window", "0", "2", "--include-decomposables")
    assert len(docs) == 3 ** 2
    assert sum(1 for d in docs if d["indecomposable"]) == 4


def test_enumerate_thin_empty_window_exits_1(capsys):
    code, out, err = run_cli(capsys, "enumerate-thin", "--window", "0", "-1")
    assert code == 1
    assert "empty window" in json.loads(out)["error"]
    assert err == ""


def test_to_quiver_round_trip(capsys, hook_module_path):
    doc = run_json(capsys, "to-quiver", "--module", hook_module_path)
    rep = QuiverRep.from_json_dict(doc)
    assert rep == to_quiver(young_module(Partition.of(2, 1), 0).module)


def test_from_quiver_round_trip(capsys, tmp_path):
    rep = to_quiver(young_module(Partition.of(2, 2), 0).module)
    path = write_json(tmp_path / "rep.json", rep.to_json_dict())
    doc = run_json(capsys, "from-quiver", "--module", path)
    assert EuclideanModule.from_json_dict(doc) == from_quiver(rep)


def test_from_quiver_rejects_relation_violation(capsys, tmp_path):
    bad = {
        "window": [0, 1],
        "dims": {"0": 1, "1": 1},
        "maps": {"h0": [["1"]], "hbar0": [["1"]]},
    }
    path = write_json(tmp_path / "bad_rep.json", bad)
    code, out, _ = run_cli(capsys, "from-quiver", "--module", path)
    assert code == 1
    assert "error" in json.loads(out)


def test_shift_command(capsys, tmp_path, hook_module_path):
    doc = run_json(capsys, "shift", "--module", hook_module_path, "--weight", "2")
    assert doc["dims"] == {"1": 1, "2": 1, "3": 1}


# A module that breaks the commutator relation and one with a map of the
# wrong shape: verify reports both, and shift and apply-word once printed a
# result for them and exited 0.
INVALID_MODULES = {
    "commutator": {"dims": {"0": 1, "1": 1}, "p_plus": {"0": [["1"]]}, "p_minus": {"1": [["1"]]}},
    "shape": {"dims": {"0": 1}, "p_plus": {"0": [["1", "2"]]}},
}


@pytest.mark.parametrize("module", INVALID_MODULES)
@pytest.mark.parametrize(
    "argv", [["shift", "--weight", "2"], ["apply-word", "--word", '["P+"]', "--vector", '{"0": ["1"]}']]
)
def test_invalid_module_exits_1(capsys, tmp_path, module, argv):
    path = write_json(tmp_path / "module.json", INVALID_MODULES[module])
    assert run_cli(capsys, "verify", "--module", path)[0] == 1
    code, out, err = run_cli(capsys, argv[0], "--module", path, *argv[1:])
    assert (code, err) == (1, "")
    assert json.loads(out)["error"].startswith("invalid module: ")


def test_stable_command(capsys, tmp_path):
    p = framed_point(young_module(Partition.of(3, 1), 0))
    path = write_json(tmp_path / "framed.json", p.to_json_dict())
    assert run_json(capsys, "stable", "--module", path) == {"stable": True}


def test_dim_formula_command(capsys):
    doc = run_json(capsys, "dim-formula", "--v", '{"0": 2}', "--w", '{"0": 1}')
    assert doc == {"dimension": -2, "empty_advisory": True}


def test_iso_command(capsys, tmp_path):
    x = to_quiver(young_module(Partition.of(2), 0).module)
    y = to_quiver(young_module(Partition.of(1, 1), 1).module)
    px = write_json(tmp_path / "x.json", x.to_json_dict())
    py = write_json(tmp_path / "y.json", y.to_json_dict())
    assert run_json(capsys, "iso", "--module", px, "--module", px) == {"isomorphic": True}
    assert run_json(
        capsys, "iso", "--module", px, "--module", py, "--exhaustive"
    ) == {"isomorphic": False}


def test_framed_iso_command(capsys, tmp_path):
    p = framed_point(young_module(Partition.of(2, 1), 0))
    path = write_json(tmp_path / "p.json", p.to_json_dict())
    doc = run_json(capsys, "framed-iso", "--module", path, "--module", path)
    assert doc == {"equivalent": True}


def test_iso_requires_two_modules(capsys, tmp_path):
    x = to_quiver(young_module(Partition.of(2), 0).module)
    px = write_json(tmp_path / "x.json", x.to_json_dict())
    code, out, _ = run_cli(capsys, "iso", "--module", px)
    assert code == 1
    assert "error" in json.loads(out)


# Each file-reading subcommand with its input kind and its other flags; a
# wrong number of valid inputs is refused before any of them is read.
MODULE_COMMANDS = {
    "verify": ("module", []),
    "to-quiver": ("module", []),
    "from-quiver": ("rep", []),
    "shift": ("module", ["--weight", "1"]),
    "stable": ("framed", []),
    "decompose": ("rep", []),
    "end-algebra": ("rep", []),
    "apply-word": ("module", ["--word", '["P+"]', "--vector", '{"0": ["1"]}']),
    "iso": ("rep", []),
    "framed-iso": ("framed", []),
}
PAIR_COMMANDS = {"iso", "framed-iso"}


@pytest.mark.parametrize(
    "command, count",
    [(c, 2) for c in MODULE_COMMANDS if c not in PAIR_COMMANDS] + [(c, n) for c in sorted(PAIR_COMMANDS) for n in (1, 3)],
)
def test_wrong_module_count_exits_1(capsys, tmp_path, command, count):
    gs = young_module(Partition.of(2, 1), 0)
    files = {
        "module": write_json(tmp_path / "module.json", gs.module.to_json_dict()),
        "rep": write_json(tmp_path / "rep.json", to_quiver(gs.module).to_json_dict()),
        "framed": write_json(tmp_path / "framed.json", framed_point(gs).to_json_dict()),
    }
    kind, flags = MODULE_COMMANDS[command]
    pair = command in PAIR_COMMANDS
    # the right count of the same files succeeds
    assert run_cli(capsys, command, *["--module", files[kind]] * (2 if pair else 1), *flags)[0] == 0
    code, out, err = run_cli(capsys, command, *["--module", files[kind]] * count, *flags)
    if pair:
        expected = "this command takes --module twice (two inputs)"
    else:
        expected = "this command takes exactly one --module"
    assert (code, err) == (1, "")
    assert json.loads(out) == {"error": expected}


@pytest.mark.parametrize(
    "dims, h0, hbar0",
    [
        ({"0": 1, "1": 1}, [["1/0"]], [["0"]]),  # zero denominator
        ({"0": 2.7, "1": 1}, [["1", "0"]], [["0"], ["0"]]),  # float read as 2 before
        ({"0": True, "1": 1}, [["1"]], [["0"]]),  # bool read as 1 before
    ],
)
def test_iso_rejects_invalid_numbers_exits_1(capsys, tmp_path, dims, h0, hbar0):
    doc = {"window": [0, 1], "dims": dims, "maps": {"h0": h0, "hbar0": hbar0}}
    path = write_json(tmp_path / "bad.json", doc)
    code, out, err = run_cli(capsys, "iso", "--module", path, "--module", path)
    assert code == 1
    assert "error" in json.loads(out)
    assert err == ""


FLOAT_REP = {"window": [0, 1], "dims": {"0": 1, "1": 1}, "maps": {"h0": [[1.5]], "hbar0": [["0"]]}}
FLOAT_FRAMED = {
    "window": [0, 1],
    "dims": {"0": 1, "1": 1},
    "maps": {"h0": [["1"]], "hbar0": [["0"]]},
    "framing_dims": {"0": 1},
    "framing": {"0": [[0.5]]},
}


@pytest.mark.parametrize(
    "command, doc",
    [("end-algebra", FLOAT_REP), ("iso", FLOAT_REP), ("decompose", FLOAT_REP), ("stable", FLOAT_FRAMED)],
)
def test_float_entries_exit_1(capsys, tmp_path, command, doc):
    path = write_json(tmp_path / "float.json", doc)
    modules = ["--module", path] * (2 if command == "iso" else 1)
    code, out, err = run_cli(capsys, command, *modules)
    assert code == 1
    assert "float" in json.loads(out)["error"]
    assert err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate-thin", "--window", "0", "22"],
        ["enumerate-thin", "--window", "0", "8", "--include-decomposables"],
        ["iso", "--module", "{rep}", "--module", "{rep}", "--exhaustive"],
        ["framed-iso", "--module", "{framed}", "--module", "{framed}", "--exhaustive"],
    ],
)
def test_over_limit_inputs_exit_1(capsys, tmp_path, argv):
    # three copies of the simple module: End is all 3x3 matrices, so the
    # exhaustive grid has 4^9 points
    cube = {"window": [0, 0], "dims": {"0": 3}, "maps": {}}
    files = {
        "rep": write_json(tmp_path / "rep.json", cube),
        "framed": write_json(tmp_path / "framed.json", {**cube, "framing_dims": {"0": 1}, "framing": {}}),
    }
    code, out, err = run_cli(capsys, *(a.format(**files) for a in argv))
    assert code == 1
    assert "over the limit" in json.loads(out)["error"]
    assert err == ""


REP = {"window": [0, 1], "dims": {"0": 1, "1": 1}, "maps": {"h0": [["1"]], "hbar0": [["0"]]}}
FRAMED = {**REP, "framing_dims": {"0": 1}, "framing": {"0": [["1"]]}}
HOOK = {"dims": {"-1": 1, "0": 1, "1": 1}, "p_plus": {"-1": [["1"]]}, "p_minus": {"1": [["1"]]}}

# Inputs that once ended in a traceback, were silently misread (exit 0), or
# ran for longer than 10 s; "{doc}" stands for a file holding the document.
PROBES = {
    "window_float": (["end-algebra", "--module", "{doc}"], {**REP, "window": [0.7, 1]}),
    "window_string_bool": (["from-quiver", "--module", "{doc}"], {**REP, "window": ["0", True]}),
    "maps_number": (["from-quiver", "--module", "{doc}"], {**REP, "maps": 5}),
    "map_string": (["from-quiver", "--module", "{doc}"], {**REP, "maps": {"h0": "1", "hbar0": [["0"]]}}),
    "map_bool": (["from-quiver", "--module", "{doc}"], {**REP, "maps": {"h0": [[True]], "hbar0": [["0"]]}}),
    "map_exponent": (["from-quiver", "--module", "{doc}"], {**REP, "maps": {"h0": [["1e99999999"]], "hbar0": [["0"]]}}),
    "framing_array": (["stable", "--module", "{doc}"], {**FRAMED, "framing": [1]}),
    "vector_float": (["apply-word", "--module", "{doc}", "--word", '["P+"]', "--vector", '{"0": [1.5]}'], HOOK),
    "vector_number": (["apply-word", "--module", "{doc}", "--word", '["P+"]', "--vector", '{"0": 1}'], HOOK),
    "partition_bool": (["young", "--partition", "[true]"], None),
    "set_bool": (["weight-runs", "--set", "[true, 2]"], None),
    "thin_wide": (["enumerate-thin", "--window", "0", "1000000000000"], None),
    "window_wide": (["end-algebra", "--module", "{doc}"], {"window": [0, 1000000000], "dims": {"0": 1}, "maps": {}}),
    "dims_huge": (["end-algebra", "--module", "{doc}"], {"window": [0, 0], "dims": {"0": 100000000}, "maps": {}}),
    "framing_dims_huge": (["stable", "--module", "{doc}"], {**FRAMED, "framing_dims": {"0": 100000000}, "framing": {}}),
    "young_huge": (["young", "--partition", "[100000000]"], None),
    "residue_dims_huge": (["residue-dims", "--partition", "[1000000000]"], None),
}

# Runs the probes one after another through cli.main in one child process
# under a 2 GB address-space cap, printing (exit code, stdout, stderr) per
# probe as it finishes; an uncaught exception's traceback is its stderr.
PROBE_CHILD = """
import contextlib, io, json, resource, sys, traceback
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from e2quiver.cli import main
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            traceback.print_exc()
            code = None
    print(json.dumps([code, out.getvalue(), err.getvalue()]), flush=True)
"""
PROBE_TIMEOUT_S = 20


@pytest.fixture(scope="module")
def probe_results(tmp_path_factory):
    """(exit code, stdout, stderr) per probe; probes that had not finished
    when the child was stopped at the timeout are missing."""
    folder = tmp_path_factory.mktemp("probes")
    runs = []
    for name, (argv, doc) in PROBES.items():
        path = write_json(folder / f"{name}.json", doc) if doc is not None else ""
        runs.append([a.replace("{doc}", path) for a in argv])
    src = str(Path(e2quiver.__file__).resolve().parents[1])
    try:
        proc = subprocess.run(
            [sys.executable, "-c", PROBE_CHILD],
            input=json.dumps(runs).encode(),
            capture_output=True,
            timeout=PROBE_TIMEOUT_S,
            env={**os.environ, "PYTHONPATH": src},
            check=False,
        )
        stdout = proc.stdout
    except subprocess.TimeoutExpired as exc:
        stdout = exc.stdout or b""
    lines = stdout.decode().splitlines()
    return {name: json.loads(line) for name, line in zip(PROBES, lines)}


@pytest.mark.parametrize("name", PROBES)
def test_probe_exits_1_with_json_error(probe_results, name):
    assert name in probe_results, f"no result within {PROBE_TIMEOUT_S} s"
    code, out, err = probe_results[name]
    assert (code, err) == (1, "")
    assert list(json.loads(out)) == ["error"]


def test_decompose_command(capsys, tmp_path):
    x = to_quiver(young_module(Partition.of(2), 0).module)
    path = write_json(tmp_path / "sum.json", direct_sum(x, x).to_json_dict())
    doc = run_json(capsys, "decompose", "--module", path)
    assert doc["count"] == 2
    assert doc["complete"] is True
    assert all(s["verdict"] == "indecomposable" for s in doc["summands"])


def test_decompose_output_is_deterministic(capsys, tmp_path):
    thin = [QuiverRep.from_json_dict(d) for d in run_json(capsys, "enumerate-thin", "--window", "0", "2")]
    total = direct_sum(direct_sum(thin[0], thin[3]), thin[0])
    x = apply_gv(total, random_gv(total, random.Random(4)))
    path = write_json(tmp_path / "sum.json", x.to_json_dict())
    _, out1, _ = run_cli(capsys, "decompose", "--module", path)
    _, out2, _ = run_cli(capsys, "decompose", "--module", path)
    assert json.loads(out1)["count"] == 3
    assert out1 == out2


def test_decompose_command_computes_each_end_once(capsys, tmp_path, monkeypatch):
    # a hidden sum of three thin summands, one repeated: the recursion takes
    # End of the five modules it visits, and each summand's verdict is the
    # one that End gave (a second End per summand made it 8)
    thin = enumerate_thin_indecomposables(Window(0, 2))
    total = direct_sum(direct_sum(thin[0], thin[3]), thin[0])
    x = apply_gv(total, random_gv(total, random.Random(4)))
    path = write_json(tmp_path / "sum.json", x.to_json_dict())
    calls = []
    end_algebra = preproj.end_algebra

    def counted(rep):
        calls.append(rep)
        return end_algebra(rep)

    monkeypatch.setattr(preproj, "end_algebra", counted)
    doc = run_json(capsys, "decompose", "--module", path)
    assert len(calls) == 5
    assert doc["count"] == 3 and doc["complete"] is True


def test_end_algebra_command(capsys, tmp_path):
    x = to_quiver(young_module(Partition.of(2), 0).module)
    path = write_json(tmp_path / "x.json", x.to_json_dict())
    doc = run_json(capsys, "end-algebra", "--module", path)
    assert doc == {"dim": 1, "radical_dim": 0, "semisimple_quotient_dim": 1}


def test_apply_word_command(capsys, hook_module_path):
    doc = run_json(
        capsys,
        "apply-word",
        "--module",
        hook_module_path,
        "--word",
        '["P+", "Proj:0"]',
        "--vector",
        '{"0": ["1"]}',
    )
    assert doc == {"result": {"1": ["1"]}}


def test_weight_runs_command(capsys):
    doc = run_json(capsys, "weight-runs", "--set", "[0, 1, 2, 5, 6]")
    assert doc == {
        "runs": [[0, 2], [5, 6]],
        "max_run_length": 3,
        "finite_type_guarantee": True,
    }
    doc = run_json(capsys, "weight-runs", "--set", "[0, 1, 2, 3, 4]")
    assert doc["finite_type_guarantee"] is False


def test_parser_is_built_once_per_process(capsys, monkeypatch, hook_module_path):
    from e2quiver import cli

    builds = []
    build_parser = cli.build_parser

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        # --module appends to a list: a parser that kept it would see two
        first = run_cli(capsys, "verify", "--module", hook_module_path)
        runs = run_cli(capsys, "weight-runs", "--set", "[0, 1, 2, 5, 6]")
        second = run_cli(capsys, "verify", "--module", hook_module_path)
    finally:
        cli._parser.cache_clear()
    assert first[0] == 0 and first == second
    assert json.loads(runs[1])["runs"] == [[0, 2], [5, 6]]
    assert len(builds) == 1


def test_stdin_input(capsys, monkeypatch):
    import io

    gs = young_module(Partition.of(2), 0)
    payload = json.dumps(gs.module.to_json_dict())
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    doc = run_json(capsys, "verify", "--module", "-")
    assert doc["valid"] is True


def test_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--module", str(path))
    assert code == 2
    assert out == ""
    assert "malformed JSON" in err


# Nested deeper than the JSON parser can go: it once ended in a
# RecursionError traceback with exit 1.
DEEP = "[" * 20000


@pytest.mark.parametrize(
    "argv",
    [
        ["weight-runs", "--set", DEEP],
        ["young", "--partition", DEEP],
        ["dim-formula", "--v", DEEP, "--w", '{"0": 1}'],
        ["apply-word", "--module", "{hook}", "--word", DEEP, "--vector", '{"0": ["1"]}'],
        ["apply-word", "--module", "{hook}", "--word", '["P+"]', "--vector", DEEP],
        ["decompose", "--module", "{deep}"],
        ["iso", "--module", "{deep}", "--module", "{deep}"],
    ],
)
def test_deeply_nested_json_exits_2(capsys, tmp_path, hook_module_path, argv):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP, encoding="utf-8")
    argv = [a.replace("{hook}", hook_module_path).replace("{deep}", str(deep)) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("malformed JSON input: ") and err.count("\n") == 1


# 20,000 zeros.  An error document once echoed the whole offending value,
# so its size grew with the input.
LONG = [0] * 20000


@pytest.mark.parametrize(
    "argv",
    [
        ["weight-runs", "--set", json.dumps([LONG])],
        ["apply-word", "--module", "{hook}", "--word", json.dumps(["Q" * 50000]), "--vector", '{"0": ["1"]}'],
        ["end-algebra", "--module", "{long}"],
        ["end-algebra", "--module", "{names}"],
    ],
)
def test_long_offending_values_give_short_errors(capsys, tmp_path, hook_module_path, argv):
    doc = {"window": [LONG, 1], "dims": {"0": 1, "1": 1}, "maps": {"h0": [["1"]], "hbar0": [["0"]]}}
    long = write_json(tmp_path / "long.json", doc)
    doc = dict(doc, window=[0, 1], maps={"h0": [["1"]], "hbar0": [["0"]], "q" * 50000: []})
    names = write_json(tmp_path / "names.json", doc)
    argv = [a.replace("{hook}", hook_module_path).replace("{long}", long).replace("{names}", names) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (1, "")
    assert len(out) < 300
    assert "..." in json.loads(out)["error"]


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate-thin"])  # missing --window
    assert exc.value.code == 2


def test_identical_seeds_identical_output(capsys, tmp_path):
    x = to_quiver(young_module(Partition.of(2, 1), 0).module)
    moved = direct_sum(x, x)
    px = write_json(tmp_path / "a.json", moved.to_json_dict())
    _, out1, _ = run_cli(capsys, "iso", "--module", px, "--module", px, "--seed", "7")
    _, out2, _ = run_cli(capsys, "iso", "--module", px, "--module", px, "--seed", "7")
    assert out1 == out2


def test_emitted_documents_reparse(capsys, tmp_path, hook_module_path):
    docs = run_json(capsys, "enumerate-thin", "--window", "0", "2")
    for doc in docs:
        rep = QuiverRep.from_json_dict(doc)
        emitted = rep.to_json_dict()
        assert emitted["dims"] == doc["dims"]
        assert emitted["maps"] == doc["maps"]
    # every representation and module document the CLI emits reads back
    # through the CLI as its kind, with its annotations (indecomposable,
    # verdict), though the readers refuse unknown keys
    thin = run_json(capsys, "enumerate-thin", "--window", "0", "2", "--include-decomposables")
    total = direct_sum(QuiverRep.from_json_dict(thin[0]), QuiverRep.from_json_dict(thin[3]))
    hidden = write_json(tmp_path / "sum.json", apply_gv(total, random_gv(total, random.Random(4))).to_json_dict())
    summands = run_json(capsys, "decompose", "--module", hidden)["summands"]
    reps = thin + summands + [run_json(capsys, "to-quiver", "--module", hook_module_path)]
    assert any(not d["indecomposable"] for d in thin) and all("verdict" in d for d in summands)
    for i, doc in enumerate(reps):
        assert run_json(capsys, "end-algebra", "--module", write_json(tmp_path / f"rep{i}.json", doc))["dim"] >= 1
    modules = [
        run_json(capsys, "young", "--partition", "[2,1]")["module"],
        run_json(capsys, "from-quiver", "--module", str(tmp_path / f"rep{len(reps) - 1}.json")),
        run_json(capsys, "shift", "--module", hook_module_path, "--weight", "1"),
    ]
    for i, doc in enumerate(modules):
        assert run_json(capsys, "verify", "--module", write_json(tmp_path / f"module{i}.json", doc))["valid"]


GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


@pytest.mark.parametrize(
    "argv, unknown",
    [
        (["verify", "--module", "young_rep.json"], "module: list ['maps', 'window']"),
        (["end-algebra", "--module", "framed_stable.json"], "representation: list ['framing', 'framing_dims']"),
        (["stable", "--module", "hook_module.json"], "framed point: list ['p_minus', 'p_plus']"),
    ],
)
def test_document_of_another_kind_exits_1(capsys, argv, unknown):
    # the readers once ignored keys of another kind and defaulted their own:
    # verify read young_rep.json as a module with every map zero and exited 0
    code, out, err = run_cli(capsys, *argv[:-1], str(GOLDEN_INPUTS / argv[-1]))
    assert (code, err) == (1, "")
    assert json.loads(out) == {"error": f"unknown keys in {unknown}"}


# Weight keys spelled other than -?digits.  int() reads all but the last as
# a weight, and those inputs once exited 0.
WEIGHT_KEY_PROBES = {
    "dim_formula_v": (["dim-formula", "--v", '{" +1_0": 1}', "--w", '{"10": 1}'], None),
    "dim_formula_w": (["dim-formula", "--v", '{"0": 1}', "--w", '{"+0": 1}'], None),
    "rep_dims": (["end-algebra", "--module", "{doc}"], {**REP, "dims": {" 0": 1, "1": 1}}),
    "framing_dims": (["stable", "--module", "{doc}"], {**FRAMED, "framing_dims": {"0 ": 1}}),
    "framing": (["stable", "--module", "{doc}"], {**FRAMED, "framing": {"+0": [["1"]]}}),
    "p_plus": (["verify", "--module", "{doc}"], {**HOOK, "p_plus": {"-1 ": [["1"]]}}),
    "p_minus": (["to-quiver", "--module", "{doc}"], {**HOOK, "p_minus": {"\t1": [["1"]]}}),
    "module_dims": (["verify", "--module", "{doc}"], {**HOOK, "dims": {"-1": 1, "٠": 1, "1": 1}}),
    "vector": (["apply-word", "--module", "{doc}", "--word", '["P+"]', "--vector", '{"+0": ["1"]}'], HOOK),
    "proj_letter": (["apply-word", "--module", "{doc}", "--word", '["Proj: 0"]', "--vector", '{"0": ["1"]}'], HOOK),
    "empty_key": (["dim-formula", "--v", '{"": 1}', "--w", '{"0": 1}'], None),
}


@pytest.mark.parametrize("name", WEIGHT_KEY_PROBES)
def test_malformed_weight_keys_exit_1(capsys, tmp_path, name):
    argv, doc = WEIGHT_KEY_PROBES[name]
    path = write_json(tmp_path / "doc.json", doc) if doc is not None else ""
    code, out, err = run_cli(capsys, *(a.replace("{doc}", path) for a in argv))
    assert (code, err) == (1, "")
    assert "weight of the form -?digits" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["dim-formula", "--v", '{"0": 1, "00": 1}', "--w", '{"0": 2}'], None),
        (["verify", "--module", "{doc}"], {**HOOK, "p_plus": {"-1": [["1"]], "-01": [["2"]]}}),
    ],
)
def test_weight_spelled_twice_exits_1(capsys, tmp_path, argv, doc):
    # int() reads both keys as one weight, and one of the values was dropped
    path = write_json(tmp_path / "doc.json", doc) if doc is not None else ""
    code, out, err = run_cli(capsys, *(a.replace("{doc}", path) for a in argv))
    assert (code, err) == (1, "")
    assert "twice" in json.loads(out)["error"]


def test_closed_stdout_exits_1_without_traceback():
    # about 300 kB of output, more than a pipe holds, so the child is still
    # writing when the reader goes away
    src = str(Path(e2quiver.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "e2quiver", "enumerate-thin", "--window", "0", "8"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (1, b"")
