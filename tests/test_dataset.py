import gzip
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from trustdae.dataset import (Dataset, DatasetError, ParseError,
                              binarize_and_filter, cache_sha256, load_cache,
                              load_raw, materialize_split, save_cache,
                              split_folds)


def write(path, text):
    path.write_text(text)
    return str(path)


class TestLoadRaw:
    def test_parses_whitespace_and_commas(self, tmp_path):
        r = write(tmp_path / "r.txt", "12 7 5\n3,4,4\n")
        t = write(tmp_path / "t.txt", "12 3\n3,12\n")
        ratings, trusts = load_raw(r, t)
        assert ratings.tolist() == [["12", "7", 5], ["3", "4", 4]]
        assert trusts.tolist() == [["12", "3"], ["3", "12"]]

    def test_score_out_of_range(self, tmp_path):
        r = write(tmp_path / "r.txt", "12 7 5\n12 7 9\n")
        t = write(tmp_path / "t.txt", "")
        with pytest.raises(ParseError, match=r"r\.txt:2: score 9 "):
            load_raw(r, t)

    def test_non_integer_score(self, tmp_path):
        r = write(tmp_path / "r.txt", "12 7 4.5\n")
        t = write(tmp_path / "t.txt", "")
        with pytest.raises(ParseError, match="r.txt:1"):
            load_raw(r, t)

    def test_wrong_field_count(self, tmp_path):
        r = write(tmp_path / "r.txt", "12 7\n")
        t = write(tmp_path / "t.txt", "")
        with pytest.raises(ParseError, match="expected 3 fields"):
            load_raw(r, t)
        r2 = write(tmp_path / "r2.txt", "")
        t2 = write(tmp_path / "t2.txt", "1 2 1\n")
        with pytest.raises(ParseError, match="expected 2 fields"):
            load_raw(r2, t2)

    def test_empty_files(self, tmp_path):
        r = write(tmp_path / "r.txt", "\n\n")
        t = write(tmp_path / "t.txt", "")
        ratings, trusts = load_raw(r, t)
        assert ratings.shape == (0, 3) and trusts.shape == (0, 2)

    def test_gzip_transparent(self, tmp_path):
        r = tmp_path / "r.txt.gz"
        with gzip.open(r, "wt") as fh:
            fh.write("1 2 5\n")
        t = write(tmp_path / "t.txt", "")
        ratings, _ = load_raw(str(r), t)
        assert ratings.tolist() == [["1", "2", 5]]

    @pytest.mark.parametrize("name,opener", [("r.txt", open), ("r.txt.gz", gzip.open)],
                             ids=["plain", "gzip"])
    def test_not_utf8_names_its_line(self, tmp_path, name, opener):
        # text mode decodes 8 KiB at a time, so the error surfaces lines
        # before or after the bad one; the message must name the bad line
        lines = [b"%d %d 5\n" % (i, i) for i in range(2000)]
        lines[1500] = b"u\xff 1 5\n"
        with opener(tmp_path / name, "wb") as fh:
            fh.write(b"".join(lines))
        t = write(tmp_path / "t.txt", "")
        with pytest.raises(ParseError, match=rf"{re.escape(name)}:1501: not valid UTF-8"):
            load_raw(str(tmp_path / name), t)

    def test_not_utf8_counts_lines_as_text_mode(self, tmp_path):
        r = write(tmp_path / "r.txt", "1 2 5\n")
        t = tmp_path / "t.txt"
        t.write_bytes(b"a b\rc d\r\ne f\r\xff g\n")
        with pytest.raises(ParseError, match=r"t\.txt:4: not valid UTF-8"):
            load_raw(r, str(t))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_raw(str(tmp_path / "nope"), str(tmp_path / "nope2"))


def ratings_of(*triples):
    return np.array([(str(u), str(i), s) for u, i, s in triples],
                    dtype=object).reshape(-1, 3)


def trusts_of(*pairs):
    return np.array(pairs, dtype=object).reshape(-1, 2)


class TestBinarizeAndFilter:
    def test_threshold(self):
        raw = ratings_of(*[("u", i, 5) for i in range(5)],
                         *[(v, i, 4) for v in "abcd" for i in range(5)],
                         ("u", 99, 3))
        ds = binarize_and_filter(raw, trusts_of(), min_count=5)
        ext = {(ds.user_ids[u], ds.item_ids[i]) for u, i in ds.ratings}
        assert ("u", "99") not in ext
        assert ("u", "0") in ext and ("a", "0") in ext
        assert len(ds.ratings) == 25

    def test_cascading_fixed_point(self):
        # u5 only reaches min_count through item x; item x only through u5.
        base = [(u, i, 5) for u in range(4) for i in range(4)]
        extra = [(5, 0, 5), (5, "x", 5)]
        raw = ratings_of(*base, *extra)
        ds = binarize_and_filter(raw, trusts_of(), min_count=3)
        user_index = {ext: k for k, ext in enumerate(ds.user_ids)}
        item_index = {ext: k for k, ext in enumerate(ds.item_ids)}
        assert "5" not in user_index and "x" not in item_index
        assert ds.n == 4 and ds.m == 4
        # dropping x leaves A's first surviving pair behind B's: dense ids
        # follow first appearance among the surviving pairs, not among all
        # positives
        raw = ratings_of(("A", "x", 5), ("B", "y", 5), ("B", "z", 5),
                         ("A", "y", 5), ("A", "z", 5))
        ds = binarize_and_filter(raw, trusts_of(), min_count=2)
        assert ds.user_ids == ["B", "A"] and ds.item_ids == ["y", "z"]

    def test_trust_restricted_and_cleaned(self):
        raw = ratings_of(*[(u, i, 5) for u in range(3) for i in range(3)])
        trusts = trusts_of(("0", "1"), ("0", "1"), ("1", "1"), ("2", "77"), ("1", "2"))
        ds = binarize_and_filter(raw, trusts, min_count=3)
        got = {(ds.user_ids[a], ds.user_ids[b]) for a, b in ds.trusts}
        assert got == {("0", "1"), ("1", "2")}

    def test_duplicate_ratings_dropped(self):
        raw = ratings_of(*[(u, i, 5) for u in range(2) for i in range(2)],
                         (0, 0, 5))
        ds = binarize_and_filter(raw, trusts_of(), min_count=2)
        assert len(ds.ratings) == 4

    def test_ids_differing_by_trailing_nul_stay_apart(self):
        # a fixed-width 'U' array drops trailing NULs and would merge the two
        raw = ratings_of(*[(u, i, 5) for u in ("a", "a\x00") for i in range(2)])
        ds = binarize_and_filter(raw, trusts_of(("a\x00", "a")), min_count=2)
        assert ds.user_ids == ["a", "a\x00"]
        assert ds.ratings.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
        assert ds.trusts.tolist() == [[1, 0]]

    def test_empty_after_filter(self):
        with pytest.raises(DatasetError):
            binarize_and_filter(ratings_of((1, 2, 5)), trusts_of(), min_count=5)

    def test_min_counts_hold(self, block_ds):
        users, counts_u = np.unique(block_ds.ratings[:, 0], return_counts=True)
        items, counts_i = np.unique(block_ds.ratings[:, 1], return_counts=True)
        assert len(users) == block_ds.n and counts_u.min() >= 5
        assert len(items) == block_ds.m and counts_i.min() >= 5

    def test_idempotent(self, block_ds):
        raw = ratings_of(*[(block_ds.user_ids[u], block_ds.item_ids[i], 5)
                           for u, i in block_ds.ratings])
        trusts = trusts_of(*[(block_ds.user_ids[a], block_ds.user_ids[b])
                             for a, b in block_ds.trusts])
        again = binarize_and_filter(raw, trusts, min_count=5)
        assert again.stats() == block_ds.stats()
        pairs = {(again.user_ids[u], again.item_ids[i]) for u, i in again.ratings}
        orig = {(block_ds.user_ids[u], block_ds.item_ids[i]) for u, i in block_ds.ratings}
        assert pairs == orig

    def test_index_bijection(self, block_ds):
        user_index = {ext: k for k, ext in enumerate(block_ds.user_ids)}
        item_index = {ext: k for k, ext in enumerate(block_ds.item_ids)}
        assert len(user_index) == block_ds.n and len(item_index) == block_ds.m
        for ext, dense in list(user_index.items())[:50]:
            assert block_ds.user_ids[dense] == ext
        for ext, dense in list(item_index.items())[:50]:
            assert block_ds.item_ids[dense] == ext


# ids that sort differently as strings and as numbers, or only differ by a
# leading zero, so any numeric reading of an id shows up as a mismatch; a
# trailing NUL and a non-ASCII id catch any fixed-width string array
IDS = ["0", "1", "01", "10", "2", "a", "a\x00", "é"]


@st.composite
def raw_inputs(draw):
    ratings = draw(st.lists(st.tuples(st.sampled_from(IDS), st.sampled_from(IDS),
                                      st.sampled_from([1, 2, 3, 4, 5, 5, 5])),
                            min_size=10, max_size=80))
    # trust endpoints include ids that rate nothing, and self-loops
    trusts = draw(st.lists(st.tuples(st.sampled_from(IDS + ["x", "y"]),
                                     st.sampled_from(IDS + ["x", "y"])),
                           max_size=30))
    if draw(st.booleans()):   # repeat records verbatim
        ratings += draw(st.lists(st.sampled_from(ratings), max_size=10))
    if trusts and draw(st.booleans()):
        trusts += draw(st.lists(st.sampled_from(trusts), max_size=10))
    return ratings, trusts


class TestAgainstRecordByRecordReference:
    @settings(max_examples=300, deadline=None)
    @given(raw=raw_inputs(), min_count=st.integers(1, 4), data=st.data(),
           seed=st.integers(0, 2**32 - 1))
    def test_filter_and_split_match_reference(self, raw, min_count, data, seed):
        ratings, trusts = raw
        # every surviving user has min_count positives, so n_folds <= min_count
        # splits; min_count=1 also reaches the too-few-positives error
        n_folds = data.draw(st.integers(2, max(2, min_count)))
        ratings_arr, trusts_arr = ratings_of(*ratings), trusts_of(*trusts)
        try:
            want = bruteforce.binarize_and_filter(ratings, trusts, min_count)
        except DatasetError:
            with pytest.raises(DatasetError):
                binarize_and_filter(ratings_arr, trusts_arr, min_count)
            return
        ds = binarize_and_filter(ratings_arr, trusts_arr, min_count)
        assert ds.ratings.dtype == np.int64 and ds.trusts.dtype == np.int64
        assert ds.ratings.shape == (len(want[2]), 2) and ds.trusts.shape == (len(want[3]), 2)
        assert (ds.user_ids, ds.item_ids, ds.ratings.tolist(), ds.trusts.tolist()) == want
        assert (ds.n, ds.m) == (len(want[0]), len(want[1]))
        try:
            want_folds = bruteforce.split_folds(want[2], want[0], n_folds, seed)
        except DatasetError as exc:
            with pytest.raises(DatasetError, match=re.escape(str(exc))):
                split_folds(ds, n_folds, seed)
            return
        assert split_folds(ds, n_folds, seed).folds.tolist() == want_folds


class TestFoldSplit:
    def test_per_user_sizes(self, block_ds):
        split = split_folds(block_ds, 5, seed=3)
        for u in range(block_ds.n):
            mask = block_ds.ratings[:, 0] == u
            total = int(mask.sum())
            sizes = np.bincount(split.folds[mask], minlength=5)
            assert set(sizes.tolist()) <= {total // 5, total // 5 + 1}

    def test_round_robin_counts(self):
        raw = ratings_of(*[(0, i, 5) for i in range(7)],
                         *[(u, i, 5) for u in range(1, 8) for i in range(7)])
        ds = binarize_and_filter(raw, trusts_of(), min_count=5)
        split = split_folds(ds, 5, seed=0)
        mask = ds.ratings[:, 0] == ds.user_ids.index("0")
        sizes = sorted(np.bincount(split.folds[mask], minlength=5).tolist())
        assert sizes == [1, 1, 1, 2, 2]

    def test_deterministic(self, block_ds):
        a = split_folds(block_ds, 5, seed=11)
        b = split_folds(block_ds, 5, seed=11)
        c = split_folds(block_ds, 5, seed=12)
        assert np.array_equal(a.folds, b.folds)
        assert not np.array_equal(a.folds, c.folds)

    def test_too_few_positives(self):
        raw = ratings_of(*[(0, i, 5) for i in range(3)],
                         *[(1, i, 5) for i in range(3)],
                         *[(2, i, 5) for i in range(3)])
        ds = binarize_and_filter(raw, trusts_of(), min_count=3)
        with pytest.raises(DatasetError, match="fewer than 5 folds"):
            split_folds(ds, 5, seed=0)

    def test_fold_of_lookup(self, block_ds):
        split = split_folds(block_ds, 5, seed=1)
        u, i = block_ds.ratings[17]
        lookup = {(int(a), int(b)): int(f)
                  for (a, b), f in zip(block_ds.ratings, split.folds)}
        assert lookup[(int(u), int(i))] == split.folds[17]


class TestMaterialize:
    def test_partition(self, block_ds):
        split = split_folds(block_ds, 5, seed=2)
        seen = set()
        for fold in range(5):
            train, test = materialize_split(block_ds, split, fold)
            test_pairs = {(u, int(i)) for u in range(block_ds.n)
                          for i in test.row(u, "rating")}
            train_pairs = {(u, int(i)) for u in range(block_ds.n)
                           for i in train.row(u, "rating")}
            assert not (test_pairs & train_pairs)
            assert not (seen & test_pairs)
            seen |= test_pairs
            assert train.nnz("trust") == len(block_ds.trusts)
            assert test.nnz("trust") == 0
        assert len(seen) == len(block_ds.ratings)

    def test_bad_fold(self, block_ds):
        split = split_folds(block_ds, 5, seed=2)
        with pytest.raises(ValueError):
            materialize_split(block_ds, split, 5)


class TestCache:
    def test_roundtrip(self, block_ds, tmp_path):
        path = tmp_path / "ds.cache"
        save_cache(block_ds, path)
        back = load_cache(path)
        assert back.n == block_ds.n and back.m == block_ds.m
        assert np.array_equal(back.ratings, block_ds.ratings)
        assert np.array_equal(back.trusts, block_ds.trusts)
        assert back.user_ids == block_ds.user_ids
        assert back.item_ids == block_ds.item_ids

    def test_byte_identical(self, block_ds, tmp_path):
        p1, p2 = tmp_path / "a.cache", tmp_path / "b.cache"
        save_cache(block_ds, p1)
        save_cache(block_ds, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert cache_sha256(p1) == cache_sha256(p2)

    def test_newline_in_id_fails_on_write(self, tmp_path):
        ds = Dataset(n=2, m=1, ratings=np.array([[0, 0], [1, 0]], dtype=np.int64),
                     trusts=np.empty((0, 2), dtype=np.int64),
                     user_ids=["a\nb", "c"], item_ids=["x"])
        path = tmp_path / "ds.cache"
        with pytest.raises(DatasetError, match=re.escape("'a\\nb'")):
            save_cache(ds, path)
        assert not path.exists()

    def test_lone_empty_id_roundtrips(self, tmp_path):
        ds = Dataset(n=1, m=1, ratings=np.array([[0, 0]], dtype=np.int64),
                     trusts=np.empty((0, 2), dtype=np.int64),
                     user_ids=[""], item_ids=[""])
        path = tmp_path / "ds.cache"
        save_cache(ds, path)
        back = load_cache(path)
        assert back.user_ids == [""] and back.item_ids == [""]
        assert back.ratings.tolist() == [[0, 0]]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"not a cache at all")
        with pytest.raises(DatasetError):
            load_cache(path)

    @pytest.mark.parametrize("keep", [8 + 20, -8], ids=["short_header", "short_body"])
    def test_truncated(self, block_ds, tmp_path, keep):
        path = tmp_path / "ds.cache"
        save_cache(block_ds, path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(DatasetError, match="truncated"):
            load_cache(path)

    def test_ids_not_utf8(self, tmp_path):
        ds = Dataset(n=1, m=1, ratings=np.array([[0, 0]], dtype=np.int64),
                     trusts=np.empty((0, 2), dtype=np.int64),
                     user_ids=["a"], item_ids=["x"])
        path = tmp_path / "ds.cache"
        save_cache(ds, path)
        data = bytearray(path.read_bytes())
        data[8 + 48] = 0xff   # the first user-id byte, after magic and counts
        path.write_bytes(bytes(data))
        with pytest.raises(DatasetError, match=r"ds\.cache: ids are not valid UTF-8"):
            load_cache(path)

    @pytest.mark.parametrize("ratings,trusts", [
        ([[0, 2]], [[0, 1]]),   # item index == m
        ([[2, 0]], [[0, 1]]),   # user index == n
        ([[0, 1]], [[1, 2]]),   # trustee index == n
        ([[0, -1]], [[0, 1]]),
    ])
    def test_index_out_of_range(self, tmp_path, ratings, trusts):
        ds = Dataset(n=2, m=2, ratings=np.array(ratings, dtype=np.int64),
                     trusts=np.array(trusts, dtype=np.int64),
                     user_ids=["a", "b"], item_ids=["x", "y"])
        path = tmp_path / "ds.cache"
        save_cache(ds, path)
        with pytest.raises(DatasetError, match="out of range"):
            load_cache(path)
