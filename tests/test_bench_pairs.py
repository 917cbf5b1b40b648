import importlib.util
import json
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _path)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

LOWER = [{"name": "t", "better": "lower", "bound": 0.25}]
HIGHER = [{"name": "rate", "better": "higher", "bound": 0.25}]


def pairs_of(name, parent, change):
    return [({name: p}, {name: c}) for p, c in zip(parent, change)]


def test_parse_seeds():
    assert bench_pairs.parse_seeds("101-103") == [101, 102, 103]
    assert bench_pairs.parse_seeds("7") == [7]


def test_nine_wins_in_ten_claim_a_gain():
    [row] = bench_pairs.summarize(pairs_of("t", [10] * 10, [5] * 9 + [12]), LOWER)
    assert row["parent"] == (10, 10, 10) and row["change"] == (5, 5, 5)
    assert (row["wins"], row["ties"], row["pairs"]) == (9, 0, 10)
    assert row["gain"] and row["bound_check"] == "ok"


def test_eight_wins_in_ten_do_not():
    [row] = bench_pairs.summarize(pairs_of("t", [10] * 10, [5] * 8 + [12, 10]), LOWER)
    assert (row["wins"], row["ties"]) == (8, 1)
    assert not row["gain"]


def test_gap_must_exceed_parent_quartile_distance():
    # every pair wins, but the medians differ by 1.5 against quartiles 9 and 11
    [row] = bench_pairs.summarize(
        pairs_of("t", [8, 9, 10, 11, 12], [7, 7.5, 8.5, 9.5, 10.5]), LOWER)
    assert row["parent"] == (9, 10, 11)
    assert row["wins"] == 5 and not row["gain"]
    [row] = bench_pairs.summarize(
        pairs_of("t", [8, 9, 10, 11, 12], [5, 6, 7.5, 8, 9]), LOWER)
    assert row["wins"] == 5 and row["gain"]


def test_bound_in_the_better_direction():
    [row] = bench_pairs.summarize(pairs_of("rate", [100] * 4, [80] * 4), HIGHER)
    assert row["bound_check"] == "ok" and row["wins"] == 0 and not row["gain"]
    [row] = bench_pairs.summarize(pairs_of("rate", [100] * 4, [70] * 4), HIGHER)
    assert row["bound_check"] == "worse"
    [row] = bench_pairs.summarize(pairs_of("t", [10] * 4, [13] * 4), LOWER)
    assert row["bound_check"] == "worse"


def test_spread_wider_than_bound_is_unresolved():
    # parent quartiles 2 and 4 around a median of 3: wider than 0.25 * 3
    [row] = bench_pairs.summarize(pairs_of("t", [1, 2, 3, 4, 5], [2.9] * 5), LOWER)
    assert row["bound_check"] == "unresolved"
    # unless every change run beats every parent run
    [row] = bench_pairs.summarize(pairs_of("t", [1, 2, 3, 4, 5], [0.5] * 5), LOWER)
    assert row["bound_check"] == "ok"


def fake_tree(root: Path, correct: bool) -> Path:
    (root / "cvbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": LOWER}))
    result = {"correct": correct, "metrics": {"t": {"value": 1.0, "unit": "s"}}}
    (root / "cvbench" / "run.py").write_text(f"print({json.dumps(json.dumps(result))})\n")
    return root


def test_sides_alternate(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "p", tmp_path / "c"
    calls = []

    def run_once(tree, workload, seed, seconds):
        calls.append((tree.name, seed))
        return {"t": 1.0}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    fake_tree(parent, True)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--workload", "w", "--seeds", "7-9", "--seconds", "1"]) == 0
    assert calls == [("p", 7), ("c", 7), ("c", 8), ("p", 8), ("p", 9), ("c", 9)]
    assert "wins 0/3 (ties 3)" in capsys.readouterr().out


def test_relative_trees_run(tmp_path, monkeypatch):
    # run.py runs in its tree, so relative paths must be resolved first
    fake_tree(tmp_path / "p", True)
    fake_tree(tmp_path / "c", True)
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main(["--parent", "p", "--change", "c", "--workload", "w",
                             "--seeds", "1", "--seconds", "1"]) == 0


def test_incorrect_run_stops(tmp_path):
    tree = fake_tree(tmp_path / "p", True)
    assert bench_pairs.run_once(tree, "w", 1, 1.0) == {"t": 1.0}
    tree = fake_tree(tmp_path / "q", False)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.run_once(tree, "w", 1, 1.0)
    assert exc.value.code == 1


def run_claim(tmp_path, monkeypatch, parent, change, claim):
    """main() over pairs of hand-made (t, rate) values, one pair per seed."""
    values = {"p": parent, "c": change}

    def run_once(tree, workload, seed, seconds):
        t, rate = values[tree.name][seed - 1]
        return {"t": t, "rate": rate}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    tree = tmp_path / "p"
    tree.mkdir()
    (tree / "BENCHMARK.json").write_text(json.dumps({"end_to_end": LOWER + HIGHER}))
    return bench_pairs.main(["--parent", str(tree), "--change", str(tmp_path / "c"),
                             "--workload", "w", "--seeds", f"1-{len(parent)}",
                             "--seconds", "1", "--claim", claim])


def test_claim_holds_with_gain_and_every_bound_ok(tmp_path, monkeypatch, capsys):
    assert run_claim(tmp_path, monkeypatch, [(10, 100)] * 10,
                     [(5, 95)] * 9 + [(12, 100)], "t") == 0
    assert capsys.readouterr().out.endswith("claim t: holds\n")


def test_claim_fails_without_gain(tmp_path, monkeypatch, capsys):
    # eight wins in ten
    assert run_claim(tmp_path, monkeypatch, [(10, 100)] * 10,
                     [(5, 100)] * 8 + [(12, 100)] * 2, "t") == 1
    assert capsys.readouterr().out.endswith("claim t: t gain no\n")


@pytest.mark.parametrize("parent_rate,change_rate,verdict", [
    ([100] * 10, [70] * 10, "worse"),
    # parent quartiles 60 and 100 around a median of 80
    ([100, 60] * 5, [100, 60] * 5, "unresolved"),
], ids=["worse", "unresolved"])
def test_claim_fails_on_any_other_bound(tmp_path, monkeypatch, capsys,
                                        parent_rate, change_rate, verdict):
    # `t` gains in every case
    assert run_claim(tmp_path, monkeypatch, [(10, r) for r in parent_rate],
                     [(5, r) for r in change_rate], "t") == 1
    assert capsys.readouterr().out.endswith(f"claim t: rate bound {verdict}\n")


def test_claim_of_unknown_metric_is_a_usage_error(tmp_path, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        run_claim(tmp_path, monkeypatch, [(10, 100)], [(5, 100)], "speed")
    assert exc.value.code == 2
