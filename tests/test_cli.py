import pytest

from trustdae import cli, synth
from trustdae.cli import ConfigError, ExperimentConfig, fold_seed, load_config


class TestConfig:
    def test_defaults_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("alpha=0.6\nepochs=12  # comment\n\n# whole line\n")
        cfg = load_config(str(cfg_file), ["beta=0.5", "user_embedding=true"])
        assert cfg.alpha == 0.6 and cfg.epochs == 12
        assert cfg.beta == 0.5 and cfg.user_embedding is True
        assert cfg.latent_dim == 10  # untouched default

    def test_override_wins_over_file(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("alpha=0.6\n")
        assert load_config(str(cfg_file), ["alpha=0.25"]).alpha == 0.25

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(None, ["learning_rate=1"])

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            load_config(None, ["epochs=ten"])

    def test_invalid_hyperparams_fail_fast(self):
        with pytest.raises(ValueError):
            load_config(None, ["alpha=2.0"])

    def test_resolved_lines_sorted(self):
        lines = ExperimentConfig().resolved_lines()
        keys = [ln.split("=")[0] for ln in lines]
        assert keys == sorted(keys)

    def test_fold_seed_deterministic(self):
        assert fold_seed(3, 1) == fold_seed(3, 1)
        assert fold_seed(3, 1) != fold_seed(3, 2)


def small_synth_args(tmp_path, **extra):
    sets = {
        "ratings": str(tmp_path / "ratings.txt"),
        "trusts": str(tmp_path / "trusts.txt"),
        "cache": str(tmp_path / "ds.cache"),
        "out": str(tmp_path / "out"),
        "synth_users": "60", "synth_items": "120", "synth_communities": "2",
        "synth_block_items": "60", "synth_p_rate": "0.35",
        "epochs": "2", "latent_dim": "4", "seed": "3",
    }
    sets.update({k: str(v) for k, v in extra.items()})
    return [f"--set={k}={v}" for k, v in sets.items()]


class TestCommands:
    def test_synth_preprocess_run(self, tmp_path, capsys):
        args = small_synth_args(tmp_path)
        assert cli.main(["synth"] + args) == 0
        assert cli.main(["preprocess"] + args) == 0
        out = capsys.readouterr().out
        assert "rating_density" in out
        assert cli.main(["run"] + args) == 0
        out_dir = tmp_path / "out"
        metrics_csv = (out_dir / "metrics.csv").read_text().splitlines()
        assert any(line.startswith("# cache_sha256=") for line in metrics_csv)
        assert any(line.startswith("# alpha=") for line in metrics_csv)
        assert "metric,cutoff,bucket,mean,ci95" in metrics_csv
        assert (out_dir / "folds.csv").exists()
        for fold in range(5):
            log = (out_dir / f"fold{fold}_train_log.csv").read_text().splitlines()
            assert any(line.startswith("# cache_sha256=") for line in log)
            head = log.index("epoch,rating_recon,trust_recon,correlative,"
                             "weight_decay,map_decay,total,param_norm,wall_time")
            assert len(log) - head - 1 == 2  # one row per epoch

    def test_preprocess_cache_reproducible(self, tmp_path):
        args = small_synth_args(tmp_path)
        cli.main(["synth"] + args)
        assert cli.main(["preprocess"] + args) == 0
        first = (tmp_path / "ds.cache").read_bytes()
        assert cli.main(["preprocess"] + args) == 0
        assert (tmp_path / "ds.cache").read_bytes() == first

    def test_pop_variant_writes_no_train_logs(self, tmp_path):
        args = small_synth_args(tmp_path, variant="pop")
        cli.main(["synth"] + args)
        cli.main(["preprocess"] + args)
        assert cli.main(["run"] + args) == 0
        assert (tmp_path / "out" / "metrics.csv").exists()
        assert not list((tmp_path / "out").glob("*train_log*"))

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        args = small_synth_args(tmp_path)
        rc = cli.main(["preprocess"] + args)
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "ds.cache").exists()

    def test_checkpoints_written(self, tmp_path):
        args = small_synth_args(tmp_path, checkpoint_every="1")
        cli.main(["synth"] + args)
        cli.main(["preprocess"] + args)
        assert cli.main(["run"] + args) == 0
        assert (tmp_path / "out" / "fold0.ckpt").exists()

    def test_sweep(self, tmp_path):
        args = small_synth_args(tmp_path, alpha_grid="0.5,1.0", epochs="1")
        cli.main(["synth"] + args)
        cli.main(["preprocess"] + args)
        assert cli.main(["sweep"] + args) == 0
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        data = [r for r in rows if r and not r.startswith("#")]
        assert data[0] == "param,value,metric,mean,ci95"
        assert len(data) == 1 + 4  # 2 grid points x 2 metrics
        assert any(r.startswith("alpha,0.5,map,") for r in data)

    def test_sweep_empty_grid_fails(self, tmp_path, capsys):
        args = small_synth_args(tmp_path)
        cli.main(["synth"] + args)
        cli.main(["preprocess"] + args)
        assert cli.main(["sweep"] + args) == 1

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("setting", [
        "bucket_edges=5,20,x", "bucket_edges=20,5", "alpha_grid=0.5,a", "beta_grid=b",
        "k_grid=4.5", "checkpoint_every=-2", "variant=bogus"])
    def test_bad_setting_fails_before_any_fold_trains(self, tmp_path, capsys, monkeypatch,
                                                       command, setting):
        args = small_synth_args(tmp_path, epochs="1")
        cli.main(["synth"] + args)
        cli.main(["preprocess"] + args)
        train, trained = cli.trainer.train, []

        def recording_train(*a, **kw):
            trained.append(a)
            return train(*a, **kw)

        monkeypatch.setattr(cli.trainer, "train", recording_train)
        capsys.readouterr()
        # the sweep has a valid grid, unless `setting` replaces it
        assert cli.main([command] + args + ["--set=beta_grid=0.02", f"--set={setting}"]) == 1
        assert setting.split("=")[0] in capsys.readouterr().err
        assert trained == []
        assert not (tmp_path / "out").exists()

    def test_gradcheck(self, capsys):
        assert cli.main(["gradcheck", "--set=seed=0"]) == 0
        out = capsys.readouterr().out
        for path in ("clean", "corrupted", "user_embedding", "tdae0"):
            assert f"gradcheck {path}: " in out

    def test_fold_failure_carries_fold_index(self, tmp_path, capsys, monkeypatch):
        args = small_synth_args(tmp_path)
        cli.main(["synth"] + args)
        cli.main(["preprocess"] + args)

        import trustdae.trainer as tr
        orig = tr.train
        calls = []

        def explode(*a, **kw):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("boom")
            return orig(*a, **kw)

        monkeypatch.setattr(tr, "train", explode)
        assert cli.main(["run"] + args) == 1
        assert "fold 2" in capsys.readouterr().err


class TestDeterminism:
    def test_run_outputs_byte_identical(self, tmp_path):
        args = small_synth_args(tmp_path)
        cli.main(["synth"] + args)
        cli.main(["preprocess"] + args)
        assert cli.main(["run"] + args) == 0
        first = {f: (tmp_path / "out" / f).read_bytes()
                 for f in ("metrics.csv", "folds.csv")}
        assert cli.main(["run"] + args) == 0
        for name, blob in first.items():
            assert (tmp_path / "out" / name).read_bytes() == blob


class TestSynthModule:
    def test_block_structure(self):
        ratings, trusts = synth.make_block_raw(n_users=40, n_items=60,
                                               n_communities=2, block_items=30,
                                               p_rate=0.5, p_trust=0.2, seed=0)
        for user, item, _ in ratings.tolist():
            assert int(user) // 20 == int(item) // 30
        for truster, trustee in trusts.tolist():
            assert int(truster) // 20 == int(trustee) // 20
            assert truster != trustee

    def test_write_raw_files_roundtrip(self, tmp_path):
        ratings, trusts = synth.make_block_raw(n_users=20, n_items=30,
                                               n_communities=2, block_items=15,
                                               p_rate=0.6, seed=1)
        synth.write_raw_files(ratings, trusts, tmp_path / "r.txt", tmp_path / "t.txt")
        from trustdae.dataset import load_raw
        back_r, back_t = load_raw(tmp_path / "r.txt", tmp_path / "t.txt")
        assert back_r.tolist() == ratings.tolist() and back_t.tolist() == trusts.tolist()

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            synth.make_block_raw(n_users=10, n_items=10, n_communities=4,
                                 block_items=60)


class TestAtomicWrites:
    def test_failed_write_leaves_target_and_no_temp_file(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):   # a lone surrogate fails mid-write
            cli._atomic_write(str(path), ["new", "\ud800"])
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]

    def test_failed_checkpoint_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def failing_save(params, hp, path):
            with open(path, "wb") as fh:
                fh.write(b"partial")
            raise OSError("disk full")

        args = small_synth_args(tmp_path, checkpoint_every="1", epochs="1")
        cli.main(["synth"] + args)
        cli.main(["preprocess"] + args)
        monkeypatch.setattr(cli, "save_checkpoint", failing_save)
        assert cli.main(["run"] + args) == 1
        assert list((tmp_path / "out").iterdir()) == []
