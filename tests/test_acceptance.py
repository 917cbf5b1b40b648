"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The expensive cross-validation runs on the planted-community dataset are
shared through the session-scoped `synth_runner` fixture.
"""

import time

import numpy as np

import trustdae as td
from trustdae import cli, gradcheck, synth
import bruteforce
from conftest import ap_one, make_tiny_store, ndcg_one, rank_one


def _report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_1_gradient_oracle():
    assert (gradcheck.FD_STEP, gradcheck.REL_TOL, gradcheck.ABS_TOL) == (1e-5, 1e-4, 1e-8)
    report = gradcheck.run_suite(instances=20, seed0=0, latent_dim=4, alpha=0.8,
                                 beta=0.01, corruption=0.0, weight_decay=0.01,
                                 map_decay=0.01)
    detail = (f"entries={report.entries} max_rel={report.max_rel_err:.2e} "
              f"max_abs={report.max_abs_err:.2e} elapsed={report.elapsed:.2f}s")
    _report(1, "gradient oracle", report.ok and report.elapsed < 10.0, detail)


def test_2_metric_oracle():
    tic = time.perf_counter()
    rng = np.random.default_rng(0)
    mismatches = 0
    for _ in range(1000):
        m = int(rng.integers(5, 31))
        scores = rng.random(m)
        train = rng.choice(m, size=rng.integers(0, m - 2), replace=False)
        rest = np.setdiff1d(np.arange(m), train)
        test = set(rng.choice(rest, size=rng.integers(1, len(rest) + 1),
                              replace=False).tolist())
        ranked = rank_one(scores, train, 10)
        if ap_one(ranked, test, 10) != bruteforce.ap_at_n(ranked.tolist(), test, 10):
            mismatches += 1
        if ndcg_one(ranked, test, 10) != bruteforce.ndcg_at_n(ranked.tolist(), test, 10):
            mismatches += 1

    items = np.array([5, 9, 7, 0, 1, 2, 3, 4, 6, 8])
    ap = ap_one(items, {5, 7}, 10)
    nd = ndcg_one(items, {5, 7}, 10)
    hand_ok = abs(ap - 0.83333) < 1e-4 and abs(nd - 0.9197) < 1e-4
    elapsed = time.perf_counter() - tic
    _report(2, "metric oracle",
            mismatches == 0 and hand_ok and elapsed < 5.0,
            f"mismatches={mismatches} ap={ap:.5f} ndcg={nd:.5f} "
            f"elapsed={elapsed:.2f}s")


def test_3_corruption_statistics():
    idx = np.arange(100_000)
    row = td.corrupt(idx, 0.2, np.random.default_rng(12345))
    drop = 1.0 - len(row.indices) / len(idx)
    survivors_exact = row.value == 1.25
    mean = row.value * len(row.indices) / len(idx)
    ok = abs(drop - 0.2) <= 0.004 and survivors_exact and abs(mean - 1.0) <= 0.01
    _report(3, "corruption statistics", ok,
            f"drop={drop:.4f} survivor={row.value} mean={mean:.4f}")


def test_4_synthetic_end_to_end(synth_runner):
    tic = time.perf_counter()
    map_tdae = synth_runner("tdae", 0).mean()
    map_pop = synth_runner("pop", 0).mean()
    elapsed = time.perf_counter() - tic
    ok = map_tdae >= 2.0 * map_pop and elapsed < 120.0
    _report(4, "synthetic end-to-end", ok,
            f"tdae={map_tdae:.4f} pop={map_pop:.4f} "
            f"ratio={map_tdae / map_pop:.1f}x elapsed={elapsed:.0f}s")


def test_5_ablation_direction(synth_runner):
    fusion_pass, stability_pass, lines = 0, 0, []
    for seed in range(5):
        m_tdae = synth_runner("tdae", seed)
        m_ronly = synth_runner("rating_only", seed)
        m_tdae0 = synth_runner("tdae0", seed)
        a = m_tdae.mean() >= m_ronly.mean()
        b = m_tdae.std(ddof=1) <= m_tdae0.std(ddof=1)
        fusion_pass += a
        stability_pass += b
        if not a:
            lines.append(f"seed{seed} fusion-miss")
        if not b:
            lines.append(f"seed{seed} stability-miss")
    ok = fusion_pass >= 4 and stability_pass >= 4
    _report(5, "ablation direction", ok,
            f"fusion {fusion_pass}/5, stability {stability_pass}/5 "
            f"(each allowed one miss) {'; '.join(lines) or 'no misses'}")


def test_6_cmd_run_determinism(tmp_path):
    args = [f"--set={k}={v}" for k, v in {
        "ratings": tmp_path / "r.txt", "trusts": tmp_path / "t.txt",
        "cache": tmp_path / "ds.cache", "out": tmp_path / "out",
        "synth_users": 60, "synth_items": 120,
        "synth_communities": 2, "synth_block_items": 60, "synth_p_rate": 0.35,
        "epochs": 3, "latent_dim": 6, "seed": 9}.items()]
    assert cli.main(["synth"] + args) == 0
    assert cli.main(["preprocess"] + args) == 0
    assert cli.main(["run"] + args) == 0
    first = {f: (tmp_path / "out" / f).read_bytes()
             for f in ("metrics.csv", "folds.csv")}
    assert cli.main(["run"] + args) == 0
    same = all((tmp_path / "out" / f).read_bytes() == first[f] for f in first)
    _report(6, "determinism", same, "metrics.csv and folds.csv byte-identical")


def test_7_complexity_scaling():
    hp = td.Hyperparams(latent_dim=10, epochs=5, seed=0)
    xs, train_sets = [], []
    for communities in (2, 4, 8):
        ds = synth.make_block_dataset(n_users=50 * communities,
                                      n_items=60 * communities,
                                      n_communities=communities,
                                      block_items=60, seed=2)
        split = td.split_folds(ds, 5, seed=0)
        train_set, _ = td.materialize_split(ds, split, 0)
        xs.append((train_set.nnz("rating") + train_set.nnz("trust"))
                  * hp.latent_dim)
        train_sets.append(train_set)
    # the repeats go round-robin over the sizes, so a burst of load from
    # other processes slows every size instead of skewing one
    ys = np.full(len(train_sets), np.inf)
    for _ in range(6):
        for k, train_set in enumerate(train_sets):
            _, log = td.train(train_set, hp)
            ys[k] = min(ys[k], min(e.wall_time for e in log.epochs[1:]))
    xs = np.array(xs, dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    r2 = 1.0 - float(resid @ resid) / float(((ys - ys.mean()) ** 2).sum())
    _report(7, "complexity scaling", r2 > 0.99,
            f"x={xs.astype(int).tolist()} y={[f'{t:.3f}' for t in ys]} R2={r2:.5f}")


def test_8_invariance_checks():
    rng = np.random.default_rng(0)
    leaked = 0
    for _ in range(10_000):
        m = int(rng.integers(15, 50))
        scores = rng.random(m)
        train = rng.choice(m, size=rng.integers(1, m - 10), replace=False)
        ranked = rank_one(scores, train, 10)
        if set(ranked.tolist()) & set(train.tolist()):
            leaked += 1

    s1 = make_tiny_store(seed=1)
    ratings = [(u, int(i)) for u in range(s1.n) for i in s1.row(u, "rating")]
    trusts = [(u, int(v)) for u in range(s1.n) for v in s1.row(u, "trust")]
    s_trust_swapped = td.SparseInteractions(
        s1.n, s1.m, ratings, [(u, (u + 3) % s1.n) for u in range(s1.n)])
    s_rating_swapped = td.SparseInteractions(
        s1.n, s1.m, [(u, (u * 2 + 1) % s1.m) for u in range(s1.n)], trusts)
    params = td.init_params(s1.n, s1.m, 4, seed=0)
    users = range(s1.n)
    alpha1_ok = np.array_equal(td.predict_scores(params, s1, users, 1.0),
                               td.predict_scores(params, s_trust_swapped, users, 1.0))
    alpha0_ok = np.array_equal(td.predict_scores(params, s1, users, 0.0),
                               td.predict_scores(params, s_rating_swapped, users, 0.0))
    _report(8, "invariance checks", leaked == 0 and alpha1_ok and alpha0_ok,
            f"rank leaks={leaked} alpha1_invariant={alpha1_ok} "
            f"alpha0_invariant={alpha0_ok}")
