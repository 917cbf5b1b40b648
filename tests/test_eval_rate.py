import importlib.util
from pathlib import Path

from trustdae import metrics

_path = Path(__file__).resolve().parents[1] / "scripts" / "eval_rate.py"
_spec = importlib.util.spec_from_file_location("eval_rate", _path)
eval_rate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(eval_rate)


def test_tiny_store_reports_rate_and_spans(capsys):
    rank_top_n = metrics.rank_top_n
    assert eval_rate.main(["--users", "12", "--items", "300", "--repeats", "2"]) == 0
    assert metrics.rank_top_n is rank_top_n
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("users=12 m=300 k=10 block=873 repeats=2 map@10=")
    for line, name in zip(lines[1:], ("eval_users_per_s", "predict_s", "rank_s")):
        label, _, rest = line.partition(": ")
        words = rest.split()
        assert label == name and words[0] == "min" and words[2] == "median"
        assert 0 < float(words[1]) <= float(words[3])
