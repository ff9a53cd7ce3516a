"""The summary arithmetic of tools/ab.py, the parent/change A/B driver."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_inclusive_quartiles():
    assert ab.quartiles([1, 2, 3, 4]) == [1.75, 3.25]
    assert ab.quartiles([4, 1, 3, 2, 5]) == [2, 4]
    assert ab.quartiles([7.5]) == [7.5, 7.5]


def test_metric_summary_medians_wins_and_resolution():
    s = ab.summarize_metric([1, 2, 3, 4], [2, 3, 4, 5], "higher")
    assert (s["parent_median"], s["change_median"]) == (2.5, 3.5)
    assert s["parent_q1_q3"] == [1.75, 3.25] and s["change_q1_q3"] == [2.75, 4.25]
    assert s["ratio_change_over_parent"] == pytest.approx(1.4)
    assert s["change_better_pairs"] == 4
    # the medians are 1.0 apart, less than the parent's q3 - q1 = 1.5
    assert not s["resolved"]
    s = ab.summarize_metric([10, 10.5, 11, 10.2], [9, 9.1, 9.4, 10.6], "lower")
    assert s["change_better_pairs"] == 3
    assert s["resolved"]  # 10.35 - 9.25 = 1.1 > 10.625 - 10.15 = 0.475
    # equal runs win nothing and resolve nothing
    s = ab.summarize_metric([1.0, 1.0], [1.0, 1.0], "higher")
    assert (s["change_better_pairs"], s["resolved"], s["ratio_change_over_parent"]) == (0, False, 1.0)


def _run(side, pair, rate, wall, attempted=100, failed=0):
    metrics = {"items_per_s": {"value": rate}, "ok_ratio": {"value": 1.0}}
    return {
        "side": side,
        "pair": pair,
        "result": {"failed": failed, "metrics": metrics},
        "record": {"wall_clock": {"items_per_s": wall}, "attempted": attempted, "host_speed": 1.0},
    }


def test_workload_summary_keeps_wall_clock_and_skips_incomplete_pairs():
    runs = [
        _run("parent", 1, 10, 11, 300), _run("change", 1, 12, 12, 330),
        _run("change", 2, 13, 10, 310), _run("parent", 2, 11, 12, 320),
        _run("parent", 3, 10, 10),  # its change run was lost
        {"side": "change", "pair": 3, "result": None, "record": None},
    ]
    s = ab.summarize_workload(runs, {"items_per_s": "higher", "ok_ratio": "higher"})
    assert s["pairs"] == 2 and s["runs_without_result"] == 1
    assert s["items_per_s"]["parent_median"] == 10.5 and s["items_per_s"]["change_median"] == 12.5
    assert s["items_per_s"]["change_better_pairs"] == 2
    assert s["wall_clock_items_per_s"]["parent"]["median"] == 11.5
    assert s["wall_clock_change_better_pairs"] == 1
    assert s["attempted_runs"]["change"] == {"median": 320.0, "all": [330, 310]}
    rows = ab.table({"w": s}).splitlines()
    assert "| w (2 pairs) | `items_per_s` | 10.5 [10.25, 10.75] | 12.5 [12.25, 12.75] | 1.190 | 2/2 | yes |" in rows


def test_src_lines_counts_every_python_file_under_src(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "src" / "pkg" / "b.py").write_text("z = 3")  # no final newline
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("nor\nthis\n")
    assert ab.src_lines(tmp_path) == 4


def test_src_code_lines_skips_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text(
        '"""Module\n\ndocstring."""\n'
        "# a comment\n"
        "\n"
        "class C:\n"
        "    '''Class docstring.'''\n"
        "\n"
        "    def f(self):\n"
        '        """Function\n        docstring."""\n'
        "        x = 1  # code with a comment\n"
        '        s = """a string\n\nthat is no docstring"""\n'
        "        return x\n"
    )
    (tmp_path / "src" / "pkg" / "b.py").write_text("async def g():\n    'doc'\n    return [\n\n        1,\n    ]")
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("not\ncounted\n")
    # a.py: class, def, x, the three lines of s (a string token spans its blank line), return;
    # b.py: def and the return's three lines of code (the blank line between brackets holds no token)
    assert ab.src_code_lines(tmp_path) == 7 + 4
    assert ab.src_lines(tmp_path) == 16 + 6
