"""Tests for coverage histograms, negative-contribution curves, and PCA."""

import math
from dataclasses import astuple

import numpy as np
import pytest

import tempcl.loss
from tempcl.analysis import (
    N_SIM_BINS,
    SIM_BIN_EDGES,
    ContributionCurves,
    _bin_of,
    _curves,
    aggregate_contribution_curves,
    coverage_csv,
    coverage_histogram,
    curves_csv,
    pca_csv,
    pca_project,
    uniformity_stat,
)
from tempcl.evaluation import knn_classify
from tempcl.loss import _PRODUCT_BLOCK_BYTES, _row_blocks, similarity_matrix
from test_data import traced_peak
from test_loss import unit_rows


class TestCoverageHistogram:
    @pytest.mark.parametrize("n", [3000, 2 * (_PRODUCT_BLOCK_BYTES // 4000) + 1])
    def test_blocks_give_the_whole_product_argmax(self, n, monkeypatch):
        """Row blocks of the embeddings x 500 directions product (the second
        case with a folded 1-row remainder) assign as one whole product does."""
        emb = unit_rows(np.random.default_rng(13), n, 16)
        assert len(_row_blocks(n, 8 * 500)) > 1
        blocked = coverage_histogram(emb, B=500, seed=3)
        monkeypatch.setattr(tempcl.loss, "_PRODUCT_BLOCK_BYTES", 1 << 62)
        assert _row_blocks(n, 8 * 500) == [(0, n)]
        np.testing.assert_array_equal(blocked, coverage_histogram(emb, B=500, seed=3))

    def test_degenerate_mass_in_one_bin(self):
        emb = np.tile([1.0, 0.0, 0.0], (50, 1))
        counts = coverage_histogram(emb, B=20, seed=0)
        assert counts.max() == 50
        assert (counts > 0).sum() == 1

    def test_single_bin(self):
        emb = unit_rows(np.random.default_rng(1), 17, 4)
        np.testing.assert_array_equal(coverage_histogram(emb, B=1, seed=0), [17])

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(2)
        emb = unit_rows(rng, 321, 6)
        assert coverage_histogram(emb, B=37, seed=5).sum() == 321

    def test_deterministic_in_seed(self):
        emb = unit_rows(np.random.default_rng(3), 100, 5)
        a = coverage_histogram(emb, B=50, seed=7)
        b = coverage_histogram(emb, B=50, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_uniform_embeddings_low_cv(self):
        """Monte-Carlo threshold: 10k uniform points over 500 bins stay
        under CV 0.35 for three seeds."""
        for seed in range(3):
            emb = unit_rows(np.random.default_rng(200 + seed), 10_000, 8)
            assert uniformity_stat(coverage_histogram(emb, B=500, seed=seed)) < 0.35

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            coverage_histogram(np.empty((0, 3)), B=5, seed=0)


class TestUniformityStat:
    def test_equal_counts_zero(self):
        assert uniformity_stat(coverage_histogram(np.eye(3), B=1, seed=0)) == 0.0

    def test_point_mass_closed_form(self):
        """counts = [n, 0, ..., 0] has CV exactly sqrt(B - 1)."""
        emb = np.tile([0.0, 1.0], (123, 1))
        counts = coverage_histogram(emb, B=40, seed=3)
        assert counts.max() == 123
        np.testing.assert_allclose(uniformity_stat(counts), math.sqrt(39.0), rtol=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        emb = unit_rows(rng, 200, 4)
        counts = coverage_histogram(emb, B=25, seed=1)
        shuffled = counts[rng.permutation(25)]
        cv1 = uniformity_stat(counts)
        cv2 = float(shuffled.std() / shuffled.mean())
        np.testing.assert_allclose(cv1, cv2, rtol=1e-12)


def contribution_curves(similarities, tau) -> ContributionCurves:
    """Contribution curves for one anchor's negatives, the oracle of
    :func:`aggregate_contribution_curves`.

    Weights are computed with the maximum similarity shifted out of the
    exponent, which cancels under max-normalization and avoids underflow at
    small temperatures.
    """
    s = np.asarray(similarities, dtype=np.float64).ravel()
    if s.size == 0:
        raise ValueError("need at least one negative similarity")
    if not (s.min() >= -1.0 and s.max() <= 1.0):  # also refuses NaN
        raise ValueError("similarities must lie in [-1, 1]")
    if not tau > 0:
        raise ValueError(f"temperature must be > 0, got {tau}")
    idx = _bin_of(s)
    cumulative = np.bincount(idx, weights=np.exp((s - s.max()) / tau), minlength=N_SIM_BINS)
    return _curves(np.bincount(idx, minlength=N_SIM_BINS), cumulative, tau)


def hard_easy_fixture():
    """One hard negative at s = 0.9 plus ninety-nine easy ones at s = 0.1."""
    return np.concatenate([[0.9], np.full(99, 0.1)])


def bin_containing(value):
    return int(np.clip(np.searchsorted(SIM_BIN_EDGES, value, side="right") - 1, 0, 99))


class TestContributionCurves:
    def test_small_tau_hard_negative_dominates(self):
        """At tau = 0.07 the cumulative argmax bin contains s = 0.9."""
        c = contribution_curves(hard_easy_fixture(), 0.07)
        assert int(np.argmax(c.cumulative)) == bin_containing(0.9)

    def test_large_tau_mass_dominates(self):
        """At tau = 1.0 the 99 easy negatives outweigh the single hard one."""
        c = contribution_curves(hard_easy_fixture(), 1.0)
        assert int(np.argmax(c.cumulative)) == bin_containing(0.1)

    def test_infinite_tau_limit_matches_histogram(self):
        """As tau grows the normalized cumulative curve approaches the
        normalized negative histogram."""
        rng = np.random.default_rng(6)
        sims = rng.uniform(-1.0, 1.0, size=5000)
        c = contribution_curves(sims, 1e6)
        hist_norm = c.histogram / c.histogram.max()
        np.testing.assert_allclose(c.cumulative, hist_norm, atol=1e-3)

    def test_normalization_and_binning_invariants(self):
        c = contribution_curves(hard_easy_fixture(), 0.2)
        assert c.individual.max() == 1.0
        assert c.cumulative.max() == 1.0
        assert len(SIM_BIN_EDGES) == len(c.histogram) + 1 == 101
        assert SIM_BIN_EDGES[0] == -1.0 and SIM_BIN_EDGES[-1] == 1.0
        np.testing.assert_allclose(np.diff(SIM_BIN_EDGES), 0.02, atol=1e-15)
        assert c.histogram.sum() == 100

    def test_center_aligned_negatives_factorize(self):
        """With negatives exactly at bin centers, cumulative equals
        individual(center) * histogram after normalization."""
        edges = np.linspace(-1.0, 1.0, 101)
        centers = 0.5 * (edges[:-1] + edges[1:])
        chosen = centers[[10, 40, 40, 40, 95, 95]]
        c = contribution_curves(chosen, 0.3)
        expect = c.individual * c.histogram
        expect = expect / expect.max()
        np.testing.assert_allclose(c.cumulative, expect, atol=1e-9)

    def test_argmax_moves_to_lower_similarity_with_tau(self):
        """The cumulative peak drifts weakly left as tau rises."""
        picks = []
        for tau in (0.07, 0.2, 0.5, 1.0):
            c = contribution_curves(hard_easy_fixture(), tau)
            picks.append(int(np.argmax(c.cumulative)))
        assert all(b <= a for a, b in zip(picks, picks[1:]))

    def test_bad_tau_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            contribution_curves(hard_easy_fixture(), 0.0)

    @pytest.mark.parametrize("bad", [-1.5, 1.0 + 1e-12, np.nan])
    def test_similarity_outside_the_range_rejected(self, bad):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            contribution_curves(np.array([0.2, bad, 0.5]), 0.5)

    def test_underflow_safe_at_tiny_tau(self):
        c = contribution_curves(np.array([-0.99, -0.98, -0.97]), 0.01)
        assert np.isfinite(c.cumulative).all()
        assert c.cumulative.max() == 1.0


class TestBinOf:
    def test_equals_searchsorted_binning(self):
        """Arithmetic binning equals the right-open searchsorted rule on every
        edge, the neighbouring floats of each edge, the ends and 10^5 uniform
        draws."""
        edges = SIM_BIN_EDGES
        s = np.concatenate([
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            [-1.0, 1.0],
            np.random.default_rng(12).uniform(-1.0, 1.0, size=100_000),
        ])
        expect = np.clip(np.searchsorted(edges, s, side="right") - 1, 0, N_SIM_BINS - 1)
        np.testing.assert_array_equal(_bin_of(s), expect)


def pooled_oracle(emb, tau):
    """The curves of the whole similarity matrix's off-diagonal entries."""
    off = ~np.eye(emb.shape[0], dtype=bool)
    return contribution_curves(similarity_matrix(emb, emb)[off], tau)


class TestAggregateCurves:
    """The curves of unit embeddings, from row blocks of their product,
    equal the oracle: bit for bit from one block, within 1e-12 from several
    (GEMM row blocks round apart from the whole product's SYRK)."""

    def test_pooled_equals_offdiagonal_pool(self):
        emb = unit_rows(np.random.default_rng(7), 6, 4)
        agg = aggregate_contribution_curves(emb, 0.3)
        direct = pooled_oracle(emb, 0.3)
        np.testing.assert_array_equal(agg.cumulative, direct.cumulative)
        np.testing.assert_array_equal(agg.histogram, direct.histogram)
        assert agg.histogram.sum() == 30

    @pytest.mark.parametrize("tau", [0.01, 0.07, 0.5])
    def test_one_block_keeps_the_bits(self, tau):
        """Duplicate rows put off-diagonal entries at s = 1 and tiny tau
        underflows most weights; the diagonal still leaves no trace."""
        base = unit_rows(np.random.default_rng(20), 100, 16)
        emb = np.vstack([base, base[:50]])
        assert len(_row_blocks(150, 8 * 150)) == 1
        agg, direct = aggregate_contribution_curves(emb, tau), pooled_oracle(emb, tau)
        for got, expect in zip(astuple(agg), astuple(direct), strict=True):
            assert got.dtype == expect.dtype
            np.testing.assert_array_equal(got, expect)
        assert agg.histogram[-1] == 100

    @pytest.mark.parametrize("n", [722, 1242])
    @pytest.mark.parametrize("tau", [0.07, 0.5])
    def test_several_blocks_agree_within_1e_12(self, n, tau):
        emb = unit_rows(np.random.default_rng(21), n, 32)
        assert len(_row_blocks(n, 8 * n)) > 1
        agg, direct = aggregate_contribution_curves(emb, tau), pooled_oracle(emb, tau)
        np.testing.assert_array_equal(agg.histogram, direct.histogram)
        np.testing.assert_array_equal(agg.individual, direct.individual)
        np.testing.assert_allclose(agg.cumulative, direct.cumulative, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("emb, tau, match", [
        (np.eye(3)[:1], 0.5, "N >= 2"),
        (np.ones(3) / np.sqrt(3), 0.5, "N >= 2"),
        (np.eye(3), 0.0, "temperature"),
        (2.0 * np.eye(3), 0.5, "row 0 of embeddings is not unit-norm"),
    ], ids=["one_row", "one_dim", "zero_tau", "not_unit"])
    def test_bad_input_rejected(self, emb, tau, match):
        with pytest.raises(ValueError, match=match):
            aggregate_contribution_curves(emb, tau)


class TestSnapshotMemory:
    """At 4,000 rows each snapshot product stays in row blocks: the traced
    peak is at most 16 MiB where the whole products took 245 MiB (kNN at
    D=128) and 610 MiB (curves at D=32).  Coverage's whole 4,000 x 500
    product took 15.4 MiB, under that bound, so its bound is 4 MiB."""

    LIMIT = 16 << 20
    N = 4000

    def test_knn(self):
        rng = np.random.default_rng(50)
        train, test = unit_rows(rng, self.N, 128), unit_rows(rng, self.N, 128)
        labels = rng.integers(0, 10, size=self.N)
        _, peak = traced_peak(lambda: knn_classify(train, labels, test, (1, 10)))
        assert peak <= self.LIMIT

    def test_curves(self):
        emb = unit_rows(np.random.default_rng(51), self.N, 32)
        _, peak = traced_peak(lambda: aggregate_contribution_curves(emb, 0.1))
        assert peak <= self.LIMIT

    def test_coverage(self):
        emb = unit_rows(np.random.default_rng(52), self.N, 32)
        _, peak = traced_peak(lambda: coverage_histogram(emb, B=500, seed=0))
        assert peak <= 4 << 20


def eigh_basis(X):
    """(centered X, covariance eigenvectors by descending eigenvalue, each
    signed so its largest-magnitude loading is positive)."""
    centered = X - X.mean(axis=0)
    eigvals, eigvecs = np.linalg.eigh(centered.T @ centered / len(X))
    basis = eigvecs[:, np.argsort(eigvals)[::-1]]
    signs = np.sign(basis[np.argmax(np.abs(basis), axis=0), np.arange(basis.shape[1])])
    return centered, basis * signs


class TestPcaProject:
    def test_collinear_data(self):
        rng = np.random.default_rng(8)
        t = rng.standard_normal(100)
        X = np.outer(t, [1.0, 2.0, -1.0])
        coords = pca_project(X, components=3)
        total = ((X - X.mean(axis=0)) ** 2).sum()
        np.testing.assert_allclose((coords[:, 0] ** 2).sum(), total, rtol=1e-9)
        np.testing.assert_allclose(coords[:, 1:], 0.0, atol=1e-9)

    def test_isotropic_ratios(self):
        """An isotropic 3-D Gaussian splits variance three ways."""
        X = np.random.default_rng(9).standard_normal((10_000, 3))
        variances = pca_project(X, components=3).var(axis=0)
        np.testing.assert_allclose(variances / variances.sum(), 1.0 / 3.0, atol=0.05)

    def test_planar_data_third_component_vanishes(self):
        rng = np.random.default_rng(10)
        plane = rng.standard_normal((500, 2))
        X = np.column_stack([plane[:, 0], plane[:, 1], plane[:, 0] + plane[:, 1]])
        # rank-2 data embedded in 3 dimensions
        coords = pca_project(X, components=3)
        assert np.abs(coords[:, :2]).max() > 1.0
        np.testing.assert_allclose(coords[:, 2], 0.0, atol=1e-9)

    def test_reconstruction_with_full_basis(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((60, 7))
        coords = pca_project(X, components=7)
        centered, basis = eigh_basis(X)
        np.testing.assert_allclose(coords @ basis.T, centered, atol=1e-8)

    def test_sign_convention(self):
        """Each component is the projection on the eigenvector whose
        largest-magnitude loading is positive."""
        rng = np.random.default_rng(12)
        X = rng.standard_normal((50, 4)) * np.array([5.0, 2.0, 1.0, 0.5])
        coords = pca_project(X, components=3)
        centered, basis = eigh_basis(X)
        np.testing.assert_allclose(coords, centered @ basis[:, :3], atol=1e-10)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="more than"):
            pca_project(np.eye(3), components=3)


class TestCsvRenderers:
    def test_coverage_csv(self):
        text = coverage_csv(coverage_histogram(np.eye(3), B=4, seed=0))
        lines = text.strip().splitlines()
        assert lines[0] == "bin,count"
        assert len(lines) == 5

    def test_curves_csv(self):
        c = contribution_curves(hard_easy_fixture(), 0.2)
        lines = curves_csv(c).strip().splitlines()
        assert lines[0] == "bin_center,histogram,individual,cumulative"
        assert len(lines) == 101

    def test_pca_csv(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((10, 5))
        coords = pca_project(X, components=3)
        lines = pca_csv(coords, np.arange(10)).strip().splitlines()
        assert lines[0] == "index,label,pc1,pc2,pc3"
        assert len(lines) == 11
        assert lines[4] == "3,3," + ",".join(repr(float(x)) for x in coords[3])
