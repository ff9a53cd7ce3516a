"""Golden outputs: fixed CLI invocations with their exact stdout and exit code.

Each case in ``golden/cases.json`` runs ``cli.main`` from inside ``golden/``
(so input paths are relative) and must print byte-for-byte the stored
``golden/expected/<name>.out`` and return the stored exit code.  Every
subcommand has at least one case, with the randomized ones under a seed and
under ``--exhaustive``.

After a deliberate output change, rewrite the expected files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import json
import os
from pathlib import Path

import pytest

from e2quiver.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(case["args"])
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / "expected" / f"{case['name']}.out").read_text(encoding="utf-8")
    assert code == case["exit"]
    if code != 2:
        assert captured.err == ""


def test_every_subcommand_has_a_case():
    from e2quiver.cli import build_parser

    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    assert set(subparsers.choices) == {c["args"][0] for c in CASES}


def _write_expected() -> None:
    import contextlib
    import io

    os.chdir(GOLDEN)
    (GOLDEN / "expected").mkdir(exist_ok=True)
    for case in CASES:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
            case["exit"] = main(case["args"])
        (GOLDEN / "expected" / f"{case['name']}.out").write_text(buffer.getvalue(), encoding="utf-8")
    lines = ",\n".join("  " + json.dumps(c) for c in CASES)
    (GOLDEN / "cases.json").write_text(f"[\n{lines}\n]\n", encoding="utf-8")


if __name__ == "__main__":
    _write_expected()
