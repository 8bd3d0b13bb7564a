"""Tests for coverage histograms, negative-contribution curves, and PCA."""

import math

import numpy as np
import pytest

from tempcl.analysis import (
    N_SIM_BINS,
    _bin_of,
    _sim_bin_edges,
    aggregate_contribution_curves,
    contribution_curves,
    coverage_csv,
    coverage_histogram,
    curves_csv,
    pca_csv,
    pca_project,
    uniformity_stat,
)


def unit_rows(rng, n, d):
    X = rng.standard_normal((n, d))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


class TestCoverageHistogram:
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


def hard_easy_fixture():
    """One hard negative at s = 0.9 plus ninety-nine easy ones at s = 0.1."""
    return np.concatenate([[0.9], np.full(99, 0.1)])


def bin_containing(curves, value):
    edges = curves.bin_edges
    idx = int(np.clip(np.searchsorted(edges, value, side="right") - 1, 0, 99))
    return idx


class TestContributionCurves:
    def test_small_tau_hard_negative_dominates(self):
        """At tau = 0.07 the cumulative argmax bin contains s = 0.9."""
        c = contribution_curves(hard_easy_fixture(), 0.07)
        assert int(np.argmax(c.cumulative)) == bin_containing(c, 0.9)

    def test_large_tau_mass_dominates(self):
        """At tau = 1.0 the 99 easy negatives outweigh the single hard one."""
        c = contribution_curves(hard_easy_fixture(), 1.0)
        assert int(np.argmax(c.cumulative)) == bin_containing(c, 0.1)

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
        assert len(c.bin_edges) == 101
        assert c.bin_edges[0] == -1.0 and c.bin_edges[-1] == 1.0
        np.testing.assert_allclose(np.diff(c.bin_edges), 0.02, atol=1e-15)
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
        edges = _sim_bin_edges()
        s = np.concatenate([
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            [-1.0, 1.0],
            np.random.default_rng(12).uniform(-1.0, 1.0, size=100_000),
        ])
        expect = np.clip(np.searchsorted(edges, s, side="right") - 1, 0, N_SIM_BINS - 1)
        np.testing.assert_array_equal(_bin_of(s, edges), expect)


class TestAggregateCurves:
    def square_sims(self):
        rng = np.random.default_rng(7)
        return rng.uniform(-0.9, 0.9, size=(6, 6))

    def test_pooled_equals_offdiagonal_pool(self):
        S = self.square_sims()
        agg = aggregate_contribution_curves(S, 0.3)
        off = S[~np.eye(6, dtype=bool)]
        direct = contribution_curves(off, 0.3)
        np.testing.assert_array_equal(agg.cumulative, direct.cumulative)
        assert agg.histogram.sum() == 30


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
        coords, ratios = pca_project(X, components=3)
        np.testing.assert_allclose(ratios[0], 1.0, atol=1e-9)
        assert ratios[1] < 1e-9

    def test_isotropic_ratios(self):
        """An isotropic 3-D Gaussian splits variance three ways."""
        X = np.random.default_rng(9).standard_normal((10_000, 3))
        _, ratios = pca_project(X, components=3)
        np.testing.assert_allclose(ratios, 1.0 / 3.0, atol=0.05)

    def test_planar_data_third_component_vanishes(self):
        rng = np.random.default_rng(10)
        plane = rng.standard_normal((500, 2))
        X = np.column_stack([plane[:, 0], plane[:, 1], plane[:, 0] + plane[:, 1]])
        # rank-2 data embedded in 3 dimensions
        _, ratios = pca_project(X, components=3)
        assert ratios[2] < 1e-9

    def test_reconstruction_with_full_basis(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((60, 7))
        coords, _ = pca_project(X, components=7)
        centered, basis = eigh_basis(X)
        np.testing.assert_allclose(coords @ basis.T, centered, atol=1e-8)

    def test_sign_convention(self):
        """Each component is the projection on the eigenvector whose
        largest-magnitude loading is positive."""
        rng = np.random.default_rng(12)
        X = rng.standard_normal((50, 4)) * np.array([5.0, 2.0, 1.0, 0.5])
        coords, _ = pca_project(X, components=3)
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
        coords, _ = pca_project(X, components=3)
        lines = pca_csv(coords, np.arange(10)).strip().splitlines()
        assert lines[0] == "index,label,pc1,pc2,pc3"
        assert len(lines) == 11
