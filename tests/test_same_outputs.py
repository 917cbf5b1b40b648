import importlib.util
from pathlib import Path

_path = Path(__file__).resolve().parents[1] / "scripts" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", _path)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

LOG = (b"# seed=0\nepoch,total,param_norm,wall_time\n"
       b"0,1.5,2.0,0.0123\n1,1.25,2.5,0.0119\n")


def tree(**changes):
    files = {"defaults/stdout": b"fold 0: map@10=0.1\n",
             "defaults/out/fold0.ckpt": bytes(range(64)),
             "defaults/out/fold0_train_log.csv": LOG,
             "gradcheck/stdout": b"gradcheck clean: 20 instances, max_rel=5.13e-07 "
                                 b"failures=0 (1.03s)\n"}
    files.update(changes)
    return {name: data for name, data in files.items() if data is not None}


def test_identical_trees_pass():
    assert same_outputs.differing(tree(), tree()) == []


def test_changed_checkpoint_byte_fails():
    ckpt = bytearray(range(64))
    ckpt[40] ^= 1
    change = tree(**{"defaults/out/fold0.ckpt": bytes(ckpt)})
    assert same_outputs.differing(tree(), change) == ["defaults/out/fold0.ckpt"]


def test_wall_time_alone_passes():
    log = LOG.replace(b"0.0123", b"0.5").replace(b"0.0119", b"7")
    assert same_outputs.differing(tree(), tree(**{"defaults/out/fold0_train_log.csv": log})) == []


def test_other_train_log_column_fails():
    log = LOG.replace(b"1,1.25", b"1,1.2500001")
    change = tree(**{"defaults/out/fold0_train_log.csv": log})
    assert same_outputs.differing(tree(), change) == ["defaults/out/fold0_train_log.csv"]


def test_gradcheck_elapsed_alone_passes():
    out = tree()["gradcheck/stdout"].replace(b"1.03s", b"9.87s")
    assert same_outputs.differing(tree(), tree(**{"gradcheck/stdout": out})) == []
    figure = out.replace(b"5.13e-07", b"5.14e-07")
    assert same_outputs.differing(tree(), tree(**{"gradcheck/stdout": figure})) == [
        "gradcheck/stdout"]


def test_missing_file_fails():
    change = tree(**{"defaults/out/fold0.ckpt": None})
    assert same_outputs.differing(tree(), change) == ["defaults/out/fold0.ckpt"]
    assert same_outputs.differing(change, tree()) == ["defaults/out/fold0.ckpt"]


def test_train_log_columns_report_their_largest_relative_change():
    log = LOG.replace(b"1,1.25", b"1,1.2500001").replace(b"0.0123", b"0.9")
    changes = same_outputs.column_changes(LOG, log)
    assert list(changes) == ["total"]
    assert abs(changes["total"] - 1e-7 / 1.2500001) < 1e-15
    both = {"fold0_train_log.csv": LOG}
    assert same_outputs.describe("fold0_train_log.csv", both,
                                 {"fold0_train_log.csv": log}) == (
        "fold0_train_log.csv (largest relative difference: total 8e-08)")
    # the file still differs, so the run still exits 1
    assert same_outputs.differing(tree(), tree(**{"defaults/out/fold0_train_log.csv": log})) == [
        "defaults/out/fold0_train_log.csv"]


def test_train_log_of_another_shape_is_named_as_such():
    short = LOG.rsplit(b"\n", 2)[0] + b"\n"
    assert same_outputs.column_changes(LOG, short) is None
    assert same_outputs.column_changes(LOG, LOG.replace(b"1.25", b"n/a")) is None
    assert same_outputs.column_changes(LOG, b"") is None
