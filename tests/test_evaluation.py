"""Tests for kNN classification (against an exhaustive sort-and-vote
oracle), the (metric, scope, value) rows of its accuracy, few-shot subsets,
and the linear probe."""

import itertools
import math

import numpy as np
import pytest

from tempcl.data import head_mid_tail_split
from tempcl.evaluation import (
    ProbeConfig,
    _probe_grads,
    _rank_neighbours,
    _rows,
    fewshot_subset,
    knn_classify,
    knn_report,
    linear_probe,
)
from tempcl.loss import _PRODUCT_BLOCK_BYTES, _row_blocks
from test_loss import unit_rows


def scores(rows, metric):
    """{scope: value} of one metric's (metric, scope, value) rows."""
    return {scope: value for name, scope, value in rows if name == metric}


def per_class(m, n_classes):
    return np.array([m[f"class_{c}"] for c in range(n_classes)])


def brute_force_knn(train_emb, train_labels, test_emb, k):
    """Independent oracle: full Euclidean-distance sort per query, then a
    vote with the same published tie rules (nearest member, then class id)."""
    preds = []
    for q in test_emb:
        dists = []
        for idx, row in enumerate(train_emb):
            d = math.sqrt(sum((a - b) ** 2 for a, b in zip(q, row)))
            dists.append((d, idx))
        dists.sort()
        top = dists[:k]
        votes = {}
        for d, idx in top:
            c = int(train_labels[idx])
            votes.setdefault(c, []).append(d)
        best = max(len(v) for v in votes.values())
        tied = [(min(v), c) for c, v in votes.items() if len(v) == best]
        preds.append(min(tied)[1])
    return np.array(preds)


def circle(angles_deg):
    a = np.deg2rad(np.asarray(angles_deg, dtype=np.float64))
    return np.stack([np.cos(a), np.sin(a)], axis=1)


class TestKnnClassify:
    def test_single_train_sample(self):
        train = circle([0.0])
        test = circle([10.0, 180.0, 90.0])
        (pred,) = knn_classify(train, [3], test, (1,))
        np.testing.assert_array_equal(pred, [3, 3, 3])

    def test_majority_vote(self):
        """Neighbours labelled [5, 5, 9] elect 5."""
        train = circle([0.0, 5.0, 10.0])
        (pred,) = knn_classify(train, [5, 5, 9], circle([2.0]), (3,))
        assert pred[0] == 5

    def test_matches_brute_force_oracle(self):
        """Predictions equal the exhaustive oracle exactly on random sets."""
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(12, 50))
            d = int(rng.integers(2, 8))
            train = unit_rows(rng, n, d)
            labels = rng.integers(0, 5, size=n)
            test = unit_rows(rng, 20, d)
            k_values = (1, 3, 10)
            for k, mine in zip(k_values, knn_classify(train, labels, test, k_values),
                               strict=True):
                np.testing.assert_array_equal(mine, brute_force_knn(train, labels, test, k))

    def test_matches_brute_force_oracle_with_boundary_ties(self):
        """Exact predictions when the k-th similarity is shared with rows
        outside the top k.  Train rows are drawn with repeats from a grid of
        unit vectors (four entries of +-1/2, the rest 0), so similarities and
        distances are exact and ties are everywhere.  One call ranks at the
        largest k, so each smaller k votes on a prefix of that ranking, cut
        exactly where the boundary repair fires."""
        rng = np.random.default_rng(31)
        D = 6
        grid = []
        for support in itertools.combinations(range(D), 4):
            for signs in itertools.product((-0.5, 0.5), repeat=4):
                v = np.zeros(D)
                v[list(support)] = signs
                grid.append(v)
        grid = np.array(grid)
        for n in (200, 500, 800):
            train = grid[rng.integers(0, 40, size=n)]
            labels = rng.integers(0, 6, size=n)
            test = grid[rng.integers(0, len(grid), size=12)]
            sims = test @ train.T
            k_values = (1, 3, 10, n)
            for k, mine in zip(k_values, knn_classify(train, labels, test, k_values),
                               strict=True):
                kth = -np.sort(-sims, axis=1)[:, k - 1:k]
                if k < n:
                    assert ((sims >= kth).sum(axis=1) > k).any()  # a boundary tie occurs
                np.testing.assert_array_equal(mine, brute_force_knn(train, labels, test, k))

    def test_vote_tie_nearest_member_wins(self):
        """1-1 vote ties go to the class with the closer member."""
        train = circle([0.0, 10.0])
        (pred,) = knn_classify(train, [7, 3], circle([4.0]), (2,))
        assert pred[0] == 7
        (pred,) = knn_classify(train, [7, 3], circle([6.0]), (2,))
        assert pred[0] == 3

    def test_exact_distance_tie_smallest_class(self):
        """Equidistant tied classes fall back to the smaller class id."""
        train = np.eye(3)[:2]
        test = np.array([[1.0, 1.0, 0.0]]) / np.sqrt(2.0)
        (pred,) = knn_classify(train, [9, 4], test, (2,))
        assert pred[0] == 4

    def test_neighbour_selection_tie_by_train_index(self):
        """Equal-similarity neighbours are ranked by train index."""
        train = np.eye(3)[:2]
        test = np.array([[1.0, 1.0, 0.0]]) / np.sqrt(2.0)
        assert knn_classify(train, [8, 2], test, (1,))[0][0] == 8
        assert knn_classify(train[::-1], [2, 8], test, (1,))[0][0] == 2

    def test_rotation_invariance(self):
        """A common orthogonal rotation changes no prediction."""
        rng = np.random.default_rng(18)
        train = unit_rows(rng, 40, 6)
        labels = rng.integers(0, 4, size=40)
        test = unit_rows(rng, 15, 6)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        base = knn_classify(train, labels, test, (1, 5))
        rotated = knn_classify(train @ Q, labels, test @ Q, (1, 5))
        np.testing.assert_array_equal(base, rotated)

    def test_euclidean_equals_cosine_ordering(self):
        """For unit vectors, ascending distance is descending similarity."""
        rng = np.random.default_rng(19)
        train = unit_rows(rng, 30, 5)
        q = unit_rows(rng, 1, 5)[0]
        sims = train @ q
        dists = np.linalg.norm(train - q, axis=1)
        np.testing.assert_array_equal(np.argsort(-sims), np.argsort(dists))

    def test_k_out_of_range(self):
        train = circle([0.0, 10.0])
        with pytest.raises(ValueError, match="k="):
            knn_classify(train, [0, 1], circle([5.0]), (1, 3))
        with pytest.raises(ValueError, match="k="):
            knn_classify(train, [0, 1], circle([5.0]), (0,))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            knn_classify(np.eye(3), [0, 1, 2], np.eye(2), (1,))


def whole_matrix_knn(train_emb, train_labels, test_emb, k_values):
    """The kNN of one whole test x train product, ranked at once, with the
    same votes: the oracle of the row-blocked ranking."""
    idx, top = _rank_neighbours(test_emb @ train_emb.T, max(k_values))
    votes = np.asarray(train_labels)[idx]
    rows = np.arange(idx.shape[0])
    shape = (idx.shape[0], int(np.max(train_labels)) + 1)
    preds = []
    for k in k_values:
        counts = np.zeros(shape, dtype=np.int64)
        nearest = np.full(shape, -np.inf)
        for j in reversed(range(k)):
            counts[rows, votes[:, j]] += 1
            nearest[rows, votes[:, j]] = top[:, j]
        tied = counts == counts.max(axis=1, keepdims=True)
        preds.append(np.argmax(np.where(tied, nearest, -np.inf), axis=1))
    return preds


class TestBlockedKnn:
    """Test rows are ranked in row blocks; the predictions equal those of
    the whole product bit for bit."""

    def assert_matches_whole_matrix(self, train, labels, test, k_values):
        mine = knn_classify(train, labels, test, k_values)
        for got, expect in zip(mine, whole_matrix_knn(train, labels, test, k_values),
                               strict=True):
            assert got.dtype == expect.dtype
            np.testing.assert_array_equal(got, expect)

    @pytest.mark.parametrize("n_train, n_test", [(722, 1000), (1242, 1000)])
    def test_several_blocks(self, n_train, n_test):
        rng = np.random.default_rng(40)
        train, test = unit_rows(rng, n_train, 32), unit_rows(rng, n_test, 32)
        assert len(_row_blocks(n_test, 8 * n_train)) > 1
        self.assert_matches_whole_matrix(train, rng.integers(0, 100, size=n_train), test,
                                         (1, 10))

    def test_a_folded_1_row_remainder(self):
        rng = np.random.default_rng(41)
        step = _PRODUCT_BLOCK_BYTES // (8 * 1024)
        train, test = unit_rows(rng, 1024, 16), unit_rows(rng, 2 * step + 1, 16)
        assert _row_blocks(test.shape[0], 8 * 1024) == [(0, step), (step, 2 * step + 1)]
        self.assert_matches_whole_matrix(train, rng.integers(0, 10, size=1024), test,
                                         (1, 5, 10))

    def test_duplicate_train_rows_tied_across_a_block_boundary(self):
        """Train rows repeat 40 distinct vectors, so every test row that is
        one of them ties with its copies; the same queries sit on both sides
        of a block boundary and rank alike."""
        rng = np.random.default_rng(42)
        distinct = unit_rows(rng, 40, 8)
        train = distinct[rng.integers(0, 40, size=1024)]
        labels = rng.integers(0, 6, size=1024)
        test = distinct[rng.integers(0, 40, size=600)]
        (_, b), (c, _) = _row_blocks(600, 8 * 1024)[:2]
        assert b == c
        test[b - 3:b + 3] = distinct[[5, 6, 7, 5, 6, 7]]
        self.assert_matches_whole_matrix(train, labels, test, (1, 10, 25))
        for k_pred in knn_classify(train, labels, test, (1, 10, 25)):
            np.testing.assert_array_equal(k_pred[b - 3:b], k_pred[b:b + 3])

    def test_no_test_rows(self):
        preds = knn_classify(np.eye(3), [0, 1, 2], np.zeros((0, 3)), (1,))
        assert len(preds) == 1
        assert preds[0].shape == (0,) and preds[0].dtype == np.int64


def group_means_oracle(per_class, groups, n_classes):
    """The head, mid and tail values as the former set-based partition made
    them: the mean of each group's non-NaN class accuracies below
    ``n_classes``, in class order, NaN for a group with none."""
    means = []
    for g in range(3):
        accs = [per_class[c] for c in sorted(set(np.flatnonzero(groups == g)))
                if c < n_classes and not np.isnan(per_class[c])]
        means.append(float(np.mean(accs)) if accs else float("nan"))
    return means


class TestGroupRows:
    @pytest.mark.parametrize("extra", [-2, 0, 3])  # partition length - n_classes
    def test_group_means_equal_the_set_oracle_bit_for_bit(self, extra):
        rng = np.random.default_rng(40 + extra)
        for trial in range(50):
            n_classes = int(rng.integers(3, 30))
            tested = rng.random(n_classes) < 0.8  # the others are NaN classes
            labels = rng.choice(np.flatnonzero(tested) if tested.any() else [0], size=60)
            pred = np.where(rng.random(60) < 0.6, labels, rng.integers(0, n_classes, size=60))
            groups = rng.integers(0, 3, size=n_classes + extra)
            if trial % 6 < 3:  # empty group trial % 6 into the next one
                groups[groups == trial % 6] = (trial + 1) % 3
            m = scores(_rows("knn1", labels, pred, groups, n_classes), "knn1")
            expect = group_means_oracle(per_class(m, n_classes), groups, n_classes)
            got = [m[g] for g in ("head", "mid", "tail")]
            assert np.array(got).tobytes() == np.array(expect).tobytes()

    def test_an_empty_group_is_nan(self):
        m = scores(_rows("knn1", np.arange(3), np.arange(3), np.array([0, 2, 2]), 3), "knn1")
        assert (m["head"], m["tail"]) == (1.0, 1.0) and math.isnan(m["mid"])


class TestKnnReport:
    def test_all_correct(self):
        train = np.eye(3)
        test = np.eye(3)
        rows = knn_report(train, [0, 1, 2], test, [0, 1, 2], k_values=(1,))
        m = scores(rows, "knn1")
        assert m["all"] == 1.0
        np.testing.assert_array_equal(per_class(m, 3), [1.0, 1.0, 1.0])
        assert [m[g] for g in ("head", "mid", "tail")] == [1.0, 1.0, 1.0]

    def test_one_class_always_wrong(self):
        """Three-class balanced test where one class is always misclassified."""
        train = circle([0.0, 180.0, 90.0])
        test = circle([10.0, -10.0, 170.0, 190.0, 80.0, 100.0])
        test_labels = [0, 0, 1, 1, 2, 2]
        rows = knn_report(train, [0, 1, 2], test, test_labels, k_values=(1,))
        m = scores(rows, "knn1")
        assert m["class_0"] == 1.0 and m["class_1"] == 1.0 and m["class_2"] == 1.0
        # now corrupt the train labels so class 1 is always wrong
        rows = knn_report(train, [0, 0, 2], test, test_labels, k_values=(1,))
        m = scores(rows, "knn1")
        assert m["all"] == 4 / 6
        assert m["class_1"] == 0.0

    def test_group_means_match_independent_recomputation(self):
        rng = np.random.default_rng(23)
        train = unit_rows(rng, 60, 5)
        train_labels = rng.integers(0, 6, size=60)
        test = unit_rows(rng, 48, 5)
        test_labels = rng.integers(0, 6, size=48)
        part = head_mid_tail_split(np.bincount(train_labels, minlength=6))
        rows = knn_report(train, train_labels, test, test_labels, k_values=(1, 10))
        for name in ("knn1", "knn10"):
            m = scores(rows, name)
            for g, group in enumerate(("head", "mid", "tail")):
                accs = [m[f"class_{c}"] for c in np.flatnonzero(part == g)]
                assert abs(m[group] - np.mean(accs)) < 1e-12

    def test_overall_is_frequency_weighted_mean(self):
        rng = np.random.default_rng(24)
        train = unit_rows(rng, 50, 4)
        train_labels = rng.integers(0, 4, size=50)
        test = unit_rows(rng, 37, 4)
        test_labels = rng.integers(0, 4, size=37)
        m = scores(knn_report(train, train_labels, test, test_labels, k_values=(1,)), "knn1")
        counts = np.bincount(test_labels, minlength=4)
        weighted = np.nansum(per_class(m, 4) * counts) / counts.sum()
        assert abs(m["all"] - weighted) < 1e-12


class TestFewshotSubset:
    def test_balanced_input_keeps_everything(self):
        labels = np.repeat(np.arange(4), 6)
        idx = fewshot_subset(labels, seed=0)
        assert len(idx) == len(labels)
        assert sorted(idx) == list(range(len(labels)))

    def test_min_class_size_shots(self):
        """Long-tail counts: every class contributes the smallest count."""
        labels = np.concatenate([np.full(120, 0), np.full(37, 1), np.full(12, 2)])
        idx = fewshot_subset(labels, seed=1)
        assert len(idx) == 3 * 12
        np.testing.assert_array_equal(np.bincount(labels[idx]), [12, 12, 12])

    def test_deterministic(self):
        labels = np.random.default_rng(25).integers(0, 5, size=200)
        a = fewshot_subset(labels, seed=9)
        b = fewshot_subset(labels, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            fewshot_subset(np.array([0, 0, 2]), seed=0)


class TestLinearProbe:
    def test_separable_three_class(self):
        """Means at +-e1 and e2 with zero noise reach perfect accuracy quickly."""
        means = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        train, labels = np.repeat(means, 20, axis=0), np.repeat([0, 1, 2], 20)
        test, test_labels = np.repeat(means, 5, axis=0), np.repeat([0, 1, 2], 5)
        cfg = ProbeConfig(mode="LT_LP", epochs=200, lr=0.5, seed=0)
        rows = linear_probe(train, labels, test, test_labels, cfg)
        assert scores(rows, "lt_lp")["all"] == 1.0

    def test_shuffled_labels_hit_chance_level(self):
        """Random labels on random embeddings score ~1/K."""
        K = 10
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            train = unit_rows(rng, 400, 16)
            labels = rng.integers(0, K, size=400)
            test = unit_rows(rng, 500, 16)
            test_labels = rng.integers(0, K, size=500)
            cfg = ProbeConfig(mode="LT_LP", epochs=200, lr=0.5, seed=seed)
            rows = linear_probe(train, labels, test, test_labels, cfg)
            acc = scores(rows, "lt_lp")["all"]
            assert 0.05 < acc < 0.15, f"seed {seed}: acc {acc}"

    def test_gradient_matches_finite_differences(self):
        """Probe gradient on a 4x3 instance vs central differences."""
        rng = np.random.default_rng(26)
        X = rng.standard_normal((4, 3))
        y = np.array([0, 1, 2, 1])
        onehot = np.zeros((4, 3))
        onehot[np.arange(4), y] = 1.0
        W = rng.standard_normal((3, 3)) * 0.3
        b = rng.standard_normal(3) * 0.1
        def cross_entropy():
            logits = X @ W + b
            logits -= logits.max(axis=1, keepdims=True)
            log_p = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
            return -log_p[np.arange(4), y].mean()

        dW, db = _probe_grads(W, b, X, onehot)
        h = 1e-5
        for arr, grad in ((W, dW), (b, db)):
            fd = np.zeros_like(arr)
            for i in range(arr.size):
                orig = arr.flat[i]
                arr.flat[i] = orig + h
                up = cross_entropy()
                arr.flat[i] = orig - h
                down = cross_entropy()
                arr.flat[i] = orig
                fd.flat[i] = (up - down) / (2 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-10)

    def test_fewshot_mode_trains_on_balanced_subset(self):
        rng = np.random.default_rng(27)
        train = unit_rows(rng, 90, 4)
        labels = np.concatenate([np.full(60, 0), np.full(20, 1), np.full(10, 2)])
        test = unit_rows(rng, 30, 4)
        test_labels = rng.integers(0, 3, size=30)
        cfg = ProbeConfig(mode="FS_LP", epochs=50, lr=0.5, seed=3)
        rows = linear_probe(train, labels, test, test_labels, cfg)
        assert {name for name, _, _ in rows} == {"fs_lp"}

    def test_single_class_training_rejected(self):
        with pytest.raises(ValueError, match="one class"):
            linear_probe(np.eye(3), [1, 1, 1], np.eye(3), [0, 1, 2],
                         ProbeConfig(mode="LT_LP", epochs=10, lr=0.1, seed=0))


class TestEvalReportRows:
    def test_rows_cover_all_scopes(self):
        train = np.eye(3)
        rows = knn_report(train, [0, 1, 2], train, [0, 1, 2], k_values=(1,))
        scopes = [scope for _, scope, _ in rows]
        assert scopes == ["all", "head", "mid", "tail", "class_0", "class_1", "class_2"]
        assert all(type(value) is float for _, _, value in rows)


def report(kind, train, labels, test, test_labels):
    """The rows of one scorer: kNN at k = 1, or a probe of mode ``kind``."""
    if kind == "knn":
        return scores(knn_report(train, labels, test, test_labels, k_values=(1,)), "knn1")
    cfg = ProbeConfig(mode=kind, epochs=200, lr=0.5, seed=0)
    return scores(linear_probe(train, labels, test, test_labels, cfg), kind.lower())


@pytest.mark.parametrize("kind", ["knn", "FS_LP", "LT_LP"])
class TestDerivedGroups:
    """Every scorer groups classes by their sizes in the full train labels."""

    def test_groups_follow_the_train_sizes_not_the_ids(self, kind):
        """Sizes 10/60/20 put class 1 in the head, 2 in the mid and 0 in the
        tail; grouping FS_LP's balanced subset would put class 0 in the
        head.  Test accuracies 1, 1/2 and 0 tell the groups apart."""
        sizes = [10, 60, 20]
        train, labels = np.repeat(np.eye(3), sizes, axis=0), np.repeat([0, 1, 2], sizes)
        test = np.eye(3)[[0, 0, 1, 0, 0, 0]]  # class 1 half right, class 2 always wrong
        m = report(kind, train, labels, test, [0, 0, 1, 1, 2, 2])
        np.testing.assert_array_equal(per_class(m, 3), [1.0, 0.5, 0.0])
        assert [m[g] for g in ("head", "mid", "tail")] == [0.5, 0.0, 1.0]

    def test_a_test_class_beyond_the_train_classes_is_in_no_group(self, kind):
        sizes = [3, 2, 2]
        train, labels = np.repeat(np.eye(4)[:3], sizes, axis=0), np.repeat([0, 1, 2], sizes)
        m = report(kind, train, labels, np.eye(4)[[0, 1, 2, 3]], [0, 1, 2, 3])
        assert m["class_3"] == 0.0 and m["all"] == 0.75
        assert [m[g] for g in ("head", "mid", "tail")] == [1.0, 1.0, 1.0]

    def test_a_two_class_train_set_cannot_be_split(self, kind):
        train, labels = np.eye(2)[[0, 0, 1, 1]], np.array([0, 0, 1, 1])
        with pytest.raises(ValueError, match="need at least 3 classes to split, got 2"):
            report(kind, train, labels, train, labels)
