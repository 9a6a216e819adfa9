import math

import numpy as np
import pytest
from scipy import fft
from scipy.special import erf

from helpers import direct_causal_conv, direct_causal_conv_backward, direct_short_conv

from l2t_hyena import hyena


class TestPositionalFeatures:
    def test_linear_column(self):
        f = hyena.positional_filter_features(4, 3)
        assert np.allclose(f[:, 0], [0.0, 0.25, 0.5, 0.75])

    def test_row_zero_sin_cos(self):
        f = hyena.positional_filter_features(16, 9)
        assert np.allclose(f[0, 1::2], 0.0)
        assert np.allclose(f[0, 2::2], 1.0)

    def test_shape_and_range(self):
        f = hyena.positional_filter_features(64, 17)
        assert f.shape == (64, 17)
        assert np.all(f >= -1.0) and np.all(f <= 1.0)

    def test_even_pos_dim_rejected(self):
        with pytest.raises(ValueError):
            hyena.positional_filter_features(8, 4)

    def test_built_once_and_read_only(self):
        # Every block of every forward shares one array per (L, pos_dim).
        f = hyena.positional_filter_features(32, 7)
        assert hyena.positional_filter_features(32, 7) is f
        assert not f.flags.writeable
        with pytest.raises(ValueError):
            f[0, 0] = 1.0
        hyena.positional_filter_features.cache_clear()
        assert np.array_equal(hyena.positional_filter_features(32, 7), f)


class TestEmbeddingScatter:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("V, D, ids_shape", [(5, 3, (2, 7)), (7, 8, (3, 6)),
                                                 (300, 64, (4, 64)), (2, 16, (1, 40))])
    def test_matches_row_scatter_bit_for_bit(self, V, D, ids_shape, dtype):
        # Repeated ids add into one row several times, in position order.
        rng = np.random.default_rng(V * D)
        ids = rng.integers(0, V, ids_shape)
        assert len(np.unique(ids)) < ids.size
        rows = rng.standard_normal((*ids_shape, D)).astype(dtype)
        out = rng.standard_normal((V, D)).astype(dtype)
        expected = out.copy()
        np.add.at(expected, ids, rows)
        hyena._add_rows(out, ids, rows)
        assert np.array_equal(out, expected)


def _filter_args(rng, P=5, F=8, N=2, D=3, dtype=np.float64):
    return {
        "filt_w1": rng.standard_normal((P, F)).astype(dtype),
        "filt_b1": rng.standard_normal(F).astype(dtype),
        "filt_w2": rng.standard_normal((F, N * D)).astype(dtype),
        "filt_b2": rng.standard_normal(N * D).astype(dtype),
        "decay": np.full((N, D), 1.0, dtype),
    }


class TestGenerateFilters:
    def test_zero_decay_equals_raw_ffn(self):
        rng = np.random.default_rng(0)
        fp = _filter_args(rng)
        w1, b1, w2, b2, decay = fp.values()
        decay[:] = 0.0
        h, _ = hyena.generate_filters(fp, L=10)
        feats = hyena.positional_filter_features(10, 5)
        raw = (np.sin(feats @ w1 + b1) @ w2 + b2).reshape(10, 2, 3).transpose(1, 0, 2)
        assert np.array_equal(h, raw)

    def test_large_decay_suppresses_tail(self):
        rng = np.random.default_rng(1)
        fp = _filter_args(rng)
        fp["decay"][:] = 1e3
        h, _ = hyena.generate_filters(fp, L=20)
        ratio = np.abs(h[:, 2:, :]) / np.maximum(np.abs(h[:, :1, :]), 1e-12)
        assert np.all(ratio < 1e-4)  # t/L >= 0.1 from index 2 of 20

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        fp = _filter_args(rng)
        h1, _ = hyena.generate_filters(fp, L=64)
        h2, _ = hyena.generate_filters(fp, L=64)
        assert np.array_equal(h1, h2)

    def test_shape(self):
        rng = np.random.default_rng(3)
        h, _ = hyena.generate_filters(_filter_args(rng), L=12)
        assert h.shape == (2, 12, 3)


class TestFftCausalConv:
    def test_identity_impulse(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((2, 8, 3)).astype(np.float32)
        h = np.zeros((8, 3), np.float32)
        h[0] = 1.0
        assert np.allclose(hyena.fft_causal_conv(u, h), u, atol=1e-6)

    def test_shift_impulse(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((2, 8, 3)).astype(np.float32)
        h = np.zeros((8, 3), np.float32)
        h[1] = 1.0
        y = hyena.fft_causal_conv(u, h)
        assert np.allclose(y[:, 1:, :], u[:, :-1, :], atol=1e-6)
        assert np.abs(y[:, 0, :]).max() < 1e-6

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((2, 33, 5))
        h = rng.standard_normal((33, 5))
        ref = direct_causal_conv(u, h)
        out = hyena.fft_causal_conv(u, h)
        assert np.abs(out - ref).max() / np.abs(ref).max() < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="conv shapes disagree"):
            hyena.fft_causal_conv(np.zeros((1, 4, 2)), np.zeros((4, 3)))
        with pytest.raises(ValueError, match="conv shapes disagree"):
            hyena.fft_causal_conv(np.zeros((1, 4, 2)), np.zeros((5, 2)))

    def test_length_one(self):
        u = np.array([[[2.0, -1.0]]])
        h = np.array([[3.0, 4.0]])
        assert np.allclose(hyena.fft_causal_conv(u, h), [[[6.0, -4.0]]])

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-10), (np.float32, 1e-5)])
    @pytest.mark.parametrize("L", [1, 33, 64, 1024])
    def test_forward_and_backward_match_direct_sums(self, L, dtype, tol):
        # L=1024 is the benchmark's longest convolution. The references are
        # float64 sums of the same (possibly float32) inputs, so only the
        # FFT path's own rounding counts against the tolerance.
        rng = np.random.default_rng(L)
        u, dy = rng.standard_normal((2, 2, L, 3)).astype(dtype)
        h = rng.standard_normal((L, 3)).astype(dtype)
        y = hyena.fft_causal_conv(u, h)
        du, dh = hyena._fft_causal_conv_backward(dy, u, h)
        u64, dy64, h64 = (a.astype(np.float64) for a in (u, dy, h))
        refs = (direct_causal_conv(u64, h64), *direct_causal_conv_backward(dy64, u64, h64))
        for out, ref in zip((y, du, dh), refs):
            assert out.dtype == dtype and out.shape == ref.shape
            assert np.abs(out - ref).max() / np.abs(ref).max() <= tol

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2, 16, 8), (4, 64, 256), (4, 1024, 64)])
    def test_forward_bits_match_public_scipy_fft(self, shape, dtype):
        # hyena calls SciPy's compiled pocketfft without scipy.fft's Python
        # layer; the padding, norm codes and thread count must give scipy.fft's
        # bits. (4, 1024, 64) is the long-context benchmark's convolution.
        rng = np.random.default_rng(shape[1])
        u = rng.standard_normal(shape).astype(dtype)
        h = rng.standard_normal(shape[1:]).astype(dtype)
        L, nfft = shape[1], 2 * shape[1]
        uf = fft.rfft(u, n=nfft, axis=1)
        hf = fft.rfft(h, n=nfft, axis=0)
        ref = fft.irfft(uf * hf[None], n=nfft, axis=1)[:, :L, :]
        y = hyena.fft_causal_conv(u, h)
        assert y.dtype == dtype and y.shape == ref.shape
        assert np.array_equal(y, ref)

    @pytest.mark.parametrize("shape", [(2, 16, 8), (4, 64, 256)])
    def test_backward_bits_on_both_sides_of_temporary_elision(self, shape):
        # A complex64 product is not bit-commutative, and from 256 KiB NumPy
        # evaluates dyf * np.conj(uf) in the conj temporary, as conj * dyf.
        # The spectra here are 2 KiB and 520 KiB; du and dh keep the bits of
        # one explicit operand order on both sides of that size.
        rng = np.random.default_rng(shape[2])
        dy, u = rng.standard_normal((2, *shape)).astype(np.float32)
        h = rng.standard_normal(shape[1:]).astype(np.float32)
        L, nfft = shape[1], 2 * shape[1]
        dyf = fft.rfft(dy, n=nfft, axis=1)
        hf = fft.rfft(h, n=nfft, axis=0)
        uf = fft.rfft(u, n=nfft, axis=1)
        ref_du = fft.irfft(np.multiply(dyf, np.conj(hf)[None]), n=nfft, axis=1)[:, :L, :]
        ref_dh = fft.irfft(np.multiply(np.conj(uf), dyf).sum(axis=0), n=nfft, axis=0)[:L, :]
        du, dh = hyena._fft_causal_conv_backward(dy.copy(), u.copy(), h)
        for out, ref in ((du, ref_du), (dh, ref_dh)):
            assert out.dtype == np.float32 and out.shape == ref.shape
            assert np.array_equal(out, ref)


def _cdf_grid():
    # Dense float32 grid: 4M + 1 points, step 6e-6, over [-12, 12], past
    # both ends of the rational's clamp at |u| = 4 sqrt 2.
    return np.linspace(-12.0, 12.0, 4_000_001, dtype=np.float32)


class TestNormalCdf:
    def test_float32_matches_float64_oracle(self):
        # The oracle is 0.5 * (1 + erf(u / sqrt 2)) in float64 of the same
        # inputs. Measured: 2.28e-7, under 4 float32 ulps below 1 (the
        # float32 SciPy expression it replaced reads 6.1e-8 here).
        u = _cdf_grid()
        phi = hyena._normal_cdf(u)
        ref = 0.5 * (1.0 + erf(u.astype(np.float64) / math.sqrt(2.0)))
        assert phi.dtype == np.float32 and phi.shape == u.shape
        assert np.abs(phi - ref).max() <= 2.5e-7

    def test_float32_lies_in_unit_interval(self):
        # The rational itself overshoots: -1.2e-7 and 1 + 1.2e-7 on this grid.
        phi = hyena._normal_cdf(_cdf_grid())
        assert phi.min() == 0.0 and phi.max() == 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_infinities_and_nan(self, dtype):
        phi = hyena._normal_cdf(np.array([-np.inf, np.inf, np.nan], dtype))
        assert phi.dtype == dtype
        assert phi[0] == 0.0 and phi[1] == 1.0 and np.isnan(phi[2])

    def test_blocks_do_not_change_bits(self):
        # 2.5 blocks, in a 3-d shape, against slices that straddle the blocks.
        n = 5 * hyena.BLOCK // 2 + 3
        u = np.random.default_rng(0).standard_normal(n).astype(np.float32) * 4.0
        whole = hyena._normal_cdf(u.reshape(1, 1, n))
        pieces = [hyena._normal_cdf(u[a:a + 1000]) for a in range(0, n, 1000)]
        assert whole.shape == (1, 1, n)
        assert np.array_equal(whole.reshape(-1), np.concatenate(pieces))

    def test_float64_runs_the_rational(self):
        # One program in both precisions: float64 evaluates the float32
        # rational, not an exact erf. Measured: within 3.24e-8 of Phi.
        u = _cdf_grid().astype(np.float64)
        phi = hyena._normal_cdf(u)
        x = np.clip(u * (1.0 / math.sqrt(2.0)), -4.0, 4.0)
        x2 = x * x
        rational = x * np.polyval(hyena._ERF_P, x2) / np.polyval(hyena._ERF_Q, x2)
        assert phi.dtype == np.float64
        assert np.array_equal(phi, np.clip(0.5 * (1.0 + rational), 0.0, 1.0))
        assert np.abs(phi - 0.5 * (1.0 + erf(u / math.sqrt(2.0)))).max() <= 4e-8


class TestGeluBackward:
    def test_exact_derivative_tracks_the_rational_forward(self):
        # The reverse pass uses the exact GELU' while the forward evaluates
        # the rational Phi; this bounds the pointwise gap against the float64
        # central difference of u * Phi(u). Measured: max 1.50e-6 near
        # |u| = 5.39, median 2.4e-7; it reaches 2.9e-6 at |u| = 5.6.
        u = np.linspace(-5.5, 5.5, 11_001).reshape(-1, 1)
        grad = hyena._gelu_backward(np.ones_like(u), u, hyena._normal_cdf(u), np.eye(1))
        h = 1e-5
        fd = ((u + h) * hyena._normal_cdf(u + h) - (u - h) * hyena._normal_cdf(u - h)) / (2 * h)
        assert np.abs(grad - fd).max() <= 2e-6

class TestShortConv:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((1, 7, 3)).astype(np.float32)
        k = np.zeros((3, 3), np.float32)
        k[:, 0] = 1.0
        assert np.allclose(hyena.short_conv(u, k), u)

    def test_delay_kernel(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((1, 7, 3)).astype(np.float32)
        k = np.zeros((3, 3), np.float32)
        k[:, 1] = 1.0
        y = hyena.short_conv(u, k)
        assert np.allclose(y[:, 1:, :], u[:, :-1, :])
        assert np.abs(y[:, 0, :]).max() == 0.0

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((1, 7, 3))
        k = rng.standard_normal((3, 3))
        assert np.allclose(hyena.short_conv(u, k), direct_short_conv(u, k), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="short_conv shapes disagree"):
            hyena.short_conv(np.zeros((1, 4, 2)), np.zeros((3, 3)))

    def test_input_not_mutated(self):
        u = np.ones((1, 4, 2), np.float32)
        before = u.copy()
        hyena.short_conv(u, np.full((2, 3), 0.5, np.float32))
        assert np.array_equal(u, before)
