import importlib.util
import sys
from pathlib import Path

_root = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("train_rate", _root / "scripts" / "train_rate.py")
train_rate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(train_rate)


def test_tiny_set_reports_rate_and_equal_hashes(capsys):
    # one checkout twice, each under its own name: equal code, equal hashes
    before = set(sys.modules)
    args = ["--tree", str(_root), "--tree", str(_root), "--users", "240", "--items", "200",
            "--epochs", "1", "--repeats", "2"]
    try:
        assert train_rate.main(args) == 0
    finally:
        for name in set(sys.modules) - before:
            del sys.modules[name]
    lines = capsys.readouterr().out.splitlines()
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
