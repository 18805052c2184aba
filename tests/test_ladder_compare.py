import importlib.util
import json
from pathlib import Path

LADDER = Path(__file__).resolve().parent.parent / "ladder"
spec = importlib.util.spec_from_file_location("ladder_compare", LADDER / "compare.py")
compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare)


def cell(rung, command, wall_s, wall_ref, exit_code=0, digest="a", rss=None):
    return {"rung": rung, "command": command, "wall_s": wall_s, "wall_ref": wall_ref,
            "exit_code": exit_code, "report_sha256": digest, "peak_rss_mb": rss}


def write(path, runs):
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_same_cells_exit_0_and_report_the_median_ratio(tmp_path, capsys):
    runs = [cell("weyl8", "check", 0.2, 0.25), cell("s8", "check", 300.0, 400.0, None, None)]
    old, new = write(tmp_path / "old.json", runs), write(tmp_path / "new.json", runs)
    assert compare.main([old, new]) == 0
    assert capsys.readouterr().out == "median wall_ref ratio NEW/OLD over 2 cells: 1.000\n"


def test_a_changed_exit_code_or_report_or_cell_exits_1(tmp_path, capsys):
    old = write(tmp_path / "old.json", [cell("w", "check", 1.0, 1.0), cell("w", "trace", 1, 1),
                                        cell("w", "implement", 1, 1)])
    new = write(tmp_path / "new.json", [cell("w", "check", 1.0, 1.0, exit_code=3),
                                        cell("w", "trace", 1, 1, digest="b"),
                                        cell("w", "invariant", 1, 1)])
    assert compare.main([old, new]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == ["only in OLD: w implement", "only in NEW: w invariant",
                       "differs: w check: exit 0 -> 3, report a -> a",
                       "differs: w trace: exit 0 -> 0, report a -> b"]


def test_only_long_cells_are_listed_as_slower(tmp_path, capsys):
    old = write(tmp_path / "old.json", [cell("a", "check", 0.15, 0.2), cell("b", "check", 2.0, 2.0),
                                        cell("c", "check", 2.0, 2.0)])
    new = write(tmp_path / "new.json", [cell("a", "check", 0.3, 0.4), cell("b", "check", 3.0, 3.0),
                                        cell("c", "check", 2.4, 2.4)])
    assert compare.main([old, new]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "over 1.3x: b check: 2.0 -> 3.0 wall_ref (1.50x; 2.0 -> 3.0 s)"]


def test_only_cells_that_grew_by_both_margins_are_listed_as_larger(tmp_path, capsys):
    # a: 1.2x but +4 MB; b: +6 MB but 1.05x; c: 1.2x and +6 MB; d: no RSS recorded
    old = write(tmp_path / "old.json", [cell("a", "check", 1, 1, rss=20.0),
                                        cell("b", "check", 1, 1, rss=120.0),
                                        cell("c", "check", 1, 1, rss=30.0),
                                        cell("d", "check", 1, 1)])
    new = write(tmp_path / "new.json", [cell("a", "check", 1, 1, rss=24.0),
                                        cell("b", "check", 1, 1, rss=126.0),
                                        cell("c", "check", 1, 1, rss=36.0),
                                        cell("d", "check", 1, 1, rss=50.0)])
    assert compare.main([old, new]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "peak RSS over 1.1x and +5.0 MB: c check: 30.0 -> 36.0 MB"]
