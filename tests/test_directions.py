"""Direction distributions: constants, sampling, norms, and MC validation."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threepoint.directions import (
    KINDS,
    DirectionDistribution,
    DistributionConstants,
    constants,
    categorical_index,
    chunk_rows,
    chunks,
    d_norm,
    d_norm_rows,
    draws,
    mc_validate,
    sample,
)


def _rotation(d: int, seed: int = 7) -> np.ndarray:
    gen = np.random.default_rng(seed)
    q, _ = np.linalg.qr(gen.standard_normal((d, d)))
    return q


class TestConstantsCatalogue:
    def test_sphere_d1(self):
        c = constants(DirectionDistribution("sphere", 1))
        assert c.gamma_d == 1.0
        # 1 / sqrt(2 pi)
        assert c.mu_d == pytest.approx(0.3989422804014327, rel=1e-15)
        assert c.norm_tag == "L2"
        assert not c.exact

    def test_sphere_d2(self):
        c = constants(DirectionDistribution("sphere", 2))
        assert c.mu_d == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-15)

    def test_gaussian_d2_is_one_over_sqrt_pi(self):
        c = constants(DirectionDistribution("gaussian", 2))
        assert c.gamma_d == 1.0
        assert c.mu_d == pytest.approx(0.5641895835477563, rel=1e-15)
        assert c.norm_tag == "L2"
        assert c.exact

    def test_coord_uniform(self):
        c = constants(DirectionDistribution("coord_uniform", 4))
        assert c.gamma_d == 1.0
        assert c.mu_d == 0.25
        assert c.norm_tag == "L1"

    def test_weighted_kinds_have_unit_mu(self):
        w = np.array([0.25, 0.75])
        c = constants(DirectionDistribution("coord_weighted", 2, weights=w))
        assert c.mu_d == 1.0
        assert c.norm_tag == "WeightedL1"
        np.testing.assert_array_equal(c.weights, w)

        basis = _rotation(2)
        c2 = constants(DirectionDistribution("orthonormal_weighted", 2, weights=w, basis=basis))
        assert c2.mu_d == 1.0
        np.testing.assert_array_equal(c2.basis, basis)


class TestSampling:
    @pytest.mark.parametrize("kind", ["sphere", "coord_uniform", "coord_weighted",
                                      "orthonormal_weighted"])
    def test_unit_norm_kinds(self, kind):
        d = 6
        weights = np.full(d, 1.0 / d)
        basis = _rotation(d) if kind == "orthonormal_weighted" else None
        w = weights if kind in ("coord_weighted", "orthonormal_weighted") else None
        dist = DirectionDistribution(kind, d, weights=w, basis=basis)
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = sample(dist, rng)
            assert float(s @ s) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_mean_square_norm(self):
        dist = DirectionDistribution("gaussian", 5)
        rng = np.random.default_rng(1)
        n = 4000
        total = sum(float(s @ s) for s in (sample(dist, rng) for _ in range(n)))
        assert total / n == pytest.approx(1.0, abs=0.05)

    def test_coord_weighted_frequency(self):
        w = np.array([1.0, 100.0]) / 101.0
        dist = DirectionDistribution("coord_weighted", 2, weights=w)
        rng = np.random.default_rng(3)
        n = 50_000
        hits = 0
        for _ in range(n):
            s = sample(dist, rng)
            hits += int(s[1] == 1.0)
        assert hits / n == pytest.approx(100.0 / 101.0, abs=2e-3)

    def test_determinism(self):
        dist = DirectionDistribution("sphere", 4)
        a = [sample(dist, np.random.default_rng(42)) for _ in range(5)]
        b = [sample(dist, np.random.default_rng(42)) for _ in range(5)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        c = sample(dist, np.random.default_rng(43))
        assert not np.array_equal(a[0], c)

    @pytest.mark.parametrize("kind", ["sphere", "gaussian", "coord_uniform",
                                      "coord_weighted", "orthonormal_weighted"])
    def test_chunked_draws_equal_sample_stream(self, kind):
        # 2500 draws span three chunks; values and the generator state after
        # them must equal 2500 sample() calls
        w = np.array([0.1, 0.2, 0.3, 0.4])
        weighted = kind in ("coord_weighted", "orthonormal_weighted")
        dist = DirectionDistribution(kind, 4, weights=w if weighted else None,
                                     basis=_rotation(4) if kind == "orthonormal_weighted" else None)
        rng_a, rng_b = np.random.default_rng(17), np.random.default_rng(17)
        n = 0
        for s, i in draws(dist, rng_a, 2500):
            expected = sample(dist, rng_b)
            if kind.startswith("coord"):
                assert s is None and expected[i] == 1.0 and float(expected @ expected) == 1.0
            else:
                assert i is None
                np.testing.assert_array_equal(s, expected)
            n += 1
        assert n == 2500
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("d", [3, 1000])
    def test_draw_chunks_are_bounded(self, d):
        # chunk size depends on dim only, never on the number of draws
        sizes = []

        class Recording:
            def __init__(self):
                self.rng = np.random.default_rng(0)

            def standard_normal(self, size):
                sizes.append(size[0])
                return self.rng.standard_normal(size)

        dist = DirectionDistribution("sphere", d)
        n = 0
        for _ in draws(dist, Recording(), 5000):
            n += 1
        assert n == 5000
        assert max(sizes) <= 1024 and max(sizes) * d <= 1 << 16
        assert sum(sizes) == 5000
        # mc_validate draws through the same bounded chunks
        sizes.clear()
        mc_validate(dist, np.ones(d), 10_000, Recording())
        assert max(sizes) <= 1024 and max(sizes) * d <= 1 << 16
        assert sum(sizes) == 10_000
        # a block of streams shares one chunk's floats
        for streams in (1, 8, 30, 10**6):
            rows = chunk_rows(d, streams)
            assert rows >= 1 and (rows == 1 or rows * d * streams <= 1 << 16)

    @settings(max_examples=100, deadline=None, database=None)
    @given(kind=st.sampled_from(KINDS), d=st.integers(1, 40), n=st.integers(0, 3000),
           rows=st.lists(st.integers(1, 1100), min_size=2, max_size=2), seed=st.integers(0, 99))
    def test_chunk_size_never_changes_the_stream(self, kind, d, n, rows, seed):
        # run_block and mc_validate pass their own rows; the blocks, joined,
        # and the generator state after them must not depend on it
        w = np.random.default_rng(seed).random(d) + 0.5
        w /= w.sum()
        weighted = kind in ("coord_weighted", "orthonormal_weighted")
        dist = DirectionDistribution(kind, d, weights=w if weighted else None,
                                     basis=_rotation(d, seed) if kind == "orthonormal_weighted"
                                     else None)
        streams = []
        for r in rows:
            rng = np.random.default_rng(seed)
            blocks = list(chunks(dist, rng, n, r))
            assert all(len(block) <= r for block in blocks)
            assert sum(len(block) for block in blocks) == n
            streams.append((b"".join(block.tobytes() for block in blocks),
                            rng.bit_generator.state))
        assert streams[0] == streams[1]

    def test_orthonormal_draws_are_basis_columns(self):
        basis = _rotation(3)
        w = np.array([0.2, 0.3, 0.5])
        dist = DirectionDistribution("orthonormal_weighted", 3, weights=w, basis=basis)
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = sample(dist, rng)
            dots = np.abs(basis.T @ s)
            assert np.max(dots) == pytest.approx(1.0, abs=1e-12)


class TestNorms:
    @pytest.mark.parametrize("kind", ["sphere", "coord_uniform", "coord_weighted",
                                      "orthonormal_weighted"])
    @pytest.mark.parametrize("d", [1, 2, 10, 33])
    def test_rows_equal_one_point_norms_bitwise(self, kind, d):
        # the block loop measures every row's gradient norm at once
        w = np.arange(1.0, d + 1.0) / (d * (d + 1) / 2)
        weighted = kind in ("coord_weighted", "orthonormal_weighted")
        c = constants(DirectionDistribution(
            kind, d, weights=w if weighted else None,
            basis=_rotation(d) if kind == "orthonormal_weighted" else None))
        G = np.random.default_rng(d).standard_normal((37, d)) * 10.0 ** np.arange(-18, 19)[:, None]
        rows = d_norm_rows(c, G)
        assert [float(v) for v in rows] == [d_norm(c, g) for g in G]

    def test_coordinate_alignment_oracle(self):
        # E|<g, e_i>| for uniform coordinates is mean |g_i|: (3 + 4) / 2 = 3.5
        c = constants(DirectionDistribution("coord_uniform", 2))
        g = np.array([3.0, -4.0])
        assert d_norm(c, g) == 7.0
        assert c.mu_d * d_norm(c, g) == 3.5

    def test_weighted_norm_oracle(self):
        w = np.array([0.25, 0.75])
        c = constants(DirectionDistribution("coord_weighted", 2, weights=w))
        # 0.25 * 10 + 0.75 * 2.5 = 4.375, exact in binary
        assert d_norm(c, np.array([10.0, -2.5])) == 4.375

    def test_l2_norms(self):
        c = constants(DirectionDistribution("sphere", 3))
        g = np.array([3.0, 0.0, 4.0])
        assert d_norm(c, g) == 5.0

    def test_rotated_weighted_norm(self):
        basis = _rotation(3)
        w = np.array([0.2, 0.3, 0.5])
        c = constants(DirectionDistribution("orthonormal_weighted", 3, weights=w, basis=basis))
        g = np.array([1.0, -2.0, 0.5])
        comp = basis.T @ g
        assert d_norm(c, g) == pytest.approx(float(w @ np.abs(comp)), rel=1e-14)


class TestCategoricalIndex:
    def test_boundaries(self):
        cdf = np.array([0.2, 1.0])
        assert categorical_index(cdf, 0.0) == 0
        assert categorical_index(cdf, 0.19) == 0
        assert categorical_index(cdf, 0.2) == 1
        assert categorical_index(cdf, 0.999) == 1
        assert categorical_index(cdf, 1.0) == 1  # clipped to the last cell


class TestMCValidation:
    @pytest.mark.parametrize("kind", ["sphere", "gaussian", "coord_uniform",
                                      "coord_weighted", "orthonormal_weighted"])
    @pytest.mark.parametrize("d", [1, 2, 5, 50])
    def test_lower_bound_holds(self, kind, d):
        if kind == "orthonormal_weighted" and d == 1:
            basis = np.eye(1)
        elif kind == "orthonormal_weighted":
            basis = _rotation(d)
        else:
            basis = None
        weights = None
        if kind in ("coord_weighted", "orthonormal_weighted"):
            raw = np.linspace(1.0, 2.0, d)
            weights = raw / raw.sum()
        dist = DirectionDistribution(kind, d, weights=weights, basis=basis)
        g = np.random.default_rng(d).standard_normal(d)
        out = mc_validate(dist, g, 20_000, np.random.default_rng(99))
        assert out.mu_lower_ok
        if kind == "gaussian":
            assert out.gamma_hat == pytest.approx(1.0, abs=0.05)
        else:
            assert out.gamma_hat == pytest.approx(1.0, abs=1e-9)

    def test_coordinate_estimate_is_sharp(self):
        # for coordinate sampling E|<g,s>| equals mu_d * d_norm exactly
        dist = DirectionDistribution("coord_uniform", 3)
        g = np.array([1.0, -2.0, 0.5])
        out = mc_validate(dist, g, 100_000, np.random.default_rng(0))
        c = constants(dist)
        assert out.inner_hat == pytest.approx(c.mu_d * out.d_norm_g, rel=5e-3)

    def test_requires_enough_samples(self):
        dist = DirectionDistribution("sphere", 2)
        with pytest.raises(ValueError, match="n_samples"):
            mc_validate(dist, np.ones(2), 100, np.random.default_rng(0))

    def test_rejects_zero_gradient(self):
        dist = DirectionDistribution("sphere", 2)
        with pytest.raises(ValueError, match="nonzero"):
            mc_validate(dist, np.zeros(2), 10_000, np.random.default_rng(0))


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DirectionDistribution("coord_weighted", 2, weights=np.array([0.5, 0.6]))

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            DirectionDistribution("coord_weighted", 2, weights=np.array([1.0, 0.0]))

    def test_basis_must_be_orthonormal(self):
        bad = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            DirectionDistribution("orthonormal_weighted", 2,
                                  weights=np.array([0.5, 0.5]), basis=bad)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DirectionDistribution("simplex", 2)

    def test_weighted_kind_needs_weights(self):
        with pytest.raises(ValueError):
            DirectionDistribution("coord_weighted", 2)

    @pytest.mark.parametrize("make, message", [
        (lambda: DirectionDistribution("sphere", 0), "dim must be >= 1"),
        (lambda: DirectionDistribution("sphere", 2, weights=np.array([0.5, 0.5])),
         "sphere does not take weights"),
        (lambda: DirectionDistribution("orthonormal_weighted", 2, weights=np.array([0.5, 0.5])),
         "orthonormal_weighted requires a basis"),
        (lambda: DirectionDistribution("orthonormal_weighted", 2, weights=np.array([0.5, 0.5]),
                                       basis=np.eye(3)), "basis must have shape (2,2), got (3, 3)"),
        (lambda: DirectionDistribution("coord_weighted", 2, weights=np.array([0.5, 0.5]),
                                       basis=np.eye(2)), "coord_weighted does not take a basis"),
        # the one norm-tag check: d_norm_rows and the level radius trust it
        (lambda: DistributionConstants(1.0, 1.0, "Linf"), "unknown norm tag 'Linf'"),
    ], ids=["dim_0", "sphere_weights", "basis_missing", "basis_shape", "coord_weighted_basis",
            "norm_tag"])
    def test_constructor_arguments_are_checked(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()
