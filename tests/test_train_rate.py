import importlib.util
import sys
from pathlib import Path

_root = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("train_rate", _root / "scripts" / "train_rate.py")
train_rate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(train_rate)


def run(capsys, args: list[str]) -> list[str]:
    """train_rate's output lines for `args`, with the modules it imported forgotten."""
    before = set(sys.modules)
    try:
        assert train_rate.main(args) == 0
    finally:
        for name in set(sys.modules) - before:
            del sys.modules[name]
    return capsys.readouterr().out.splitlines()


def test_tiny_set_reports_rate_and_equal_hashes(capsys):
    # one checkout twice, each under its own name: equal code, equal hashes
    args = ["--tree", str(_root), "--tree", str(_root), "--users", "240", "--items", "200",
            "--epochs", "1", "--repeats", "2"]
    lines = run(capsys, args)
    assert lines[0].startswith("n=") and lines[0].endswith("k=10 epochs=1 repeats=2")
    assert len(lines) == 3
    hashes = []
    for line in lines[1:]:
        tree, _, rest = line.partition(": ")
        words = rest.split()
        assert Path(tree) == _root
        assert words[0] == "min" and words[2] == "median" and words[4] == "s"
        assert 0 < float(words[1]) <= float(words[3])
        assert words[5] == "speedup" and words[7] == "hash"
        hashes.append(words[8])
    assert hashes[0] == hashes[1] and len(hashes[0]) == 16


def test_shape_flags_reach_the_dataset(capsys):
    # three communities of 10 users over 20-item blocks, nearly every
    # rating and trust edge present: every user passes the filter
    dense = run(capsys, ["--users", "30", "--items", "60", "--communities", "3", "--p-rate",
                         "0.9", "--p-trust", "0.5", "--epochs", "1", "--repeats", "1"])
    sparse = run(capsys, ["--users", "30", "--items", "60", "--communities", "3", "--p-rate",
                          "0.5", "--p-trust", "0.2", "--epochs", "1", "--repeats", "1"])
    head = [dict(word.split("=") for word in lines[0].split()) for lines in (dense, sparse)]
    assert head[0]["n"] == "30" and head[0]["m"] == "60"
    assert int(head[0]["ratings"]) > int(head[1]["ratings"])
    assert int(head[0]["trusts"]) > int(head[1]["trusts"])
