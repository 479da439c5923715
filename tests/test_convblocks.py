import itertools

import numpy as np
import pytest

from convfactor import (
    ConvSpec,
    CPModel,
    compose_forward,
    conv2d_reference,
    count_params_flops,
    emit_cpd_block,
    emit_svd_block,
    emit_tkd_cpd_block,
    restore_kernel,
)
from convfactor.convblocks import (
    LayerDescriptor,
    _out_hw,
    _tap_windows,
    block_basis,
    block_factors,
    block_to_kernel,
    layer_forward,
)
from convfactor.hybrid import HybridModel, to_equivalent_cp
from convfactor.pipeline import fit


def conv_loop(x, kernel, stride, pad):
    """Independent sliding-window implementation (oracle)."""
    h, w, s = x.shape
    d0, d1, _, t = kernel.shape
    ho = (h + 2 * pad - d0) // stride + 1
    wo = (w + 2 * pad - d1) // stride + 1
    out = np.zeros((ho, wo, t))
    for hp in range(ho):
        for wp in range(wo):
            for tt in range(t):
                acc = 0.0
                for i in range(d0):
                    for j in range(d1):
                        hi = hp * stride + i - pad
                        wj = wp * stride + j - pad
                        if 0 <= hi < h and 0 <= wj < w:
                            for ss in range(s):
                                acc += kernel[i, j, ss, tt] * x[hi, wj, ss]
                out[hp, wp, tt] = acc
    return out


def random_model(rng, d, s, t, r):
    return CPModel(
        rng.standard_normal((d * d, r)),
        rng.standard_normal((s, r)),
        rng.standard_normal((t, r)),
    )


class TestLayerForward:
    @pytest.mark.parametrize(
        "cin,cout,groups,stride,pad",
        [(6, 9, 1, 1, 1), (6, 9, 3, 1, 1), (6, 6, 6, 2, 1), (4, 8, 2, 3, 2)],
    )
    def test_grouped_against_block_diagonal_reference(
        self, cin, cout, groups, stride, pad
    ):
        # a grouped layer is the dense conv with a block-diagonal kernel
        rng = np.random.default_rng(30)
        ing, outg = cin // groups, cout // groups
        layer = LayerDescriptor(
            cin, cout, (3, 3), rng.standard_normal((cout, ing, 3, 3)),
            groups=groups, stride=stride, pad=pad, bias=rng.standard_normal(cout),
        )
        dense = np.zeros((3, 3, cin, cout))
        for g in range(groups):
            block = layer.weights[g * outg : (g + 1) * outg]  # (outg, ing, 3, 3)
            dense[:, :, g * ing : (g + 1) * ing, g * outg : (g + 1) * outg] = (
                np.transpose(block, (2, 3, 1, 0))
            )
        spec = ConvSpec(cin, cout, 3, stride=stride, pad=pad, bias=layer.bias)
        x = rng.standard_normal((7, 8, cin))
        ref = conv2d_reference(x, spec, dense)
        assert np.max(np.abs(layer_forward(x, layer) - ref)) < 1e-12


    @pytest.mark.parametrize("stride, pad", itertools.product((1, 2), (0, 1)))
    def test_depthwise_against_the_dense_kernel_of_its_block(self, stride, pad):
        # the depthwise layer between two identity 1x1 layers is a cpd block,
        # whose dense kernel is diagonal in the channels
        rng = np.random.default_rng(31)
        r = 5
        layer = LayerDescriptor(
            r, r, (3, 3), rng.standard_normal((r, 1, 3, 3)), groups=r,
            stride=stride, pad=pad, bias=rng.standard_normal(r),
        )
        eye = LayerDescriptor(r, r, (1, 1), np.eye(r)[:, :, None, None])
        dense = block_to_kernel([eye, layer, eye], "cpd")
        spec = ConvSpec(r, r, 3, stride=stride, pad=pad, bias=layer.bias)
        x = rng.standard_normal((7, 8, r))
        ref = conv2d_reference(x, spec, dense)
        assert np.max(np.abs(layer_forward(x, layer) - ref)) < 1e-12

def test_tap_windows_are_slices_of_the_padded_input():
    # the windows are filled from the unpadded input, zero in the padding,
    # including taps that see no input row or column at all (a 7-wide
    # kernel on a 3-wide input padded by 2, say)
    rng = np.random.default_rng(4)
    for h, w, kh, kw, stride, pad in itertools.product(
            range(1, 6), range(1, 5), (1, 2, 3, 7), (1, 2, 3, 7), range(1, 4),
            range(3)):
        if h + 2 * pad < kh or w + 2 * pad < kw:
            continue
        x = rng.standard_normal((h, w, 2))
        ho, wo = _out_hw(h, w, kh, kw, stride, pad)
        xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
        taps = []
        for (i, j), window in _tap_windows(x, kh, kw, stride, pad):
            taps.append((i, j))
            assert np.array_equal(
                window, xp[i : i + stride * (ho - 1) + 1 : stride,
                           j : j + stride * (wo - 1) + 1 : stride])
        assert taps == [(i, j) for i in range(kh) for j in range(kw)]


class TestConv2dReference:
    def test_pointwise_doubling(self):
        spec = ConvSpec(1, 1, 1)
        x = np.ones((2, 2, 1))
        k = np.full((1, 1, 1, 1), 2.0)
        assert np.array_equal(conv2d_reference(x, spec, k), np.full((2, 2, 1), 2.0))

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 5, 3))
        d = 3
        k = np.zeros((d, d, 3, 3))
        for c in range(3):
            k[1, 1, c, c] = 1.0
        spec = ConvSpec(3, 3, d, pad=1)
        assert np.max(np.abs(conv2d_reference(x, spec, k) - x)) < 1e-14

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (3, 2)])
    def test_against_loop_oracle(self, stride, pad):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 6, 2))
        k = rng.standard_normal((3, 3, 2, 4))
        spec = ConvSpec(2, 4, 3, stride=stride, pad=pad)
        assert np.max(
            np.abs(conv2d_reference(x, spec, k) - conv_loop(x, k, stride, pad))
        ) < 1e-12

    def test_bias(self):
        rng = np.random.default_rng(2)
        bias = np.array([1.0, -2.0])
        spec = ConvSpec(3, 2, 1, bias=bias)
        x = rng.standard_normal((4, 4, 3))
        k = rng.standard_normal((1, 1, 3, 2))
        out = conv2d_reference(x, spec, k)
        no_bias = conv2d_reference(x, ConvSpec(3, 2, 1), k)
        assert np.max(np.abs(out - no_bias - bias)) < 1e-14

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            conv2d_reference(
                np.zeros((4, 4, 3)), ConvSpec(2, 4, 3), np.zeros((3, 3, 2, 4))
            )


class TestCpdBlock:
    def test_parameter_formula(self):
        rng = np.random.default_rng(3)
        m = random_model(rng, 3, 64, 64, 100)
        layers = emit_cpd_block(m, ConvSpec(64, 64, 3))
        assert sum(l.weights.size for l in layers) == 13700  # R(D^2+S+T)

    def test_exact_forward_equivalence(self):
        rng = np.random.default_rng(4)
        m = random_model(rng, 3, 6, 5, 4)
        spec = ConvSpec(6, 5, 3, stride=2, pad=1, bias=rng.standard_normal(5))
        k4 = restore_kernel(m.to_tensor(), 3)
        layers = emit_cpd_block(m, spec)
        x = rng.standard_normal((7, 8, 6))
        assert np.max(
            np.abs(conv2d_reference(x, spec, k4) - compose_forward(layers, x))
        ) < 1e-10

    def test_rank1_separable_hand_path(self):
        rng = np.random.default_rng(5)
        d, s, t = 3, 4, 2
        a = rng.standard_normal((d * d, 1))
        b = rng.standard_normal((s, 1))
        c = rng.standard_normal((t, 1))
        spec = ConvSpec(s, t, d)
        layers = emit_cpd_block(CPModel(a, b, c), spec)
        x = rng.standard_normal((6, 6, s))
        # hand path: channel mix by b, one spatial filter from a, expand by c
        mixed = x @ b  # (6, 6, 1)
        filt = a[:, 0].reshape(d, d)[:, :, None, None]
        spat = conv2d_reference(mixed, ConvSpec(1, 1, d), filt)
        by_hand = spat * c[:, 0]
        assert np.max(np.abs(compose_forward(layers, x) - by_hand)) < 1e-12

    def test_inexact_model_matches_its_own_kernel(self):
        # the chain realizes exactly the reconstructed kernel, regardless of
        # how badly that kernel approximates anything else
        rng = np.random.default_rng(6)
        m = random_model(rng, 3, 5, 6, 2)
        spec = ConvSpec(5, 6, 3, pad=1)
        layers = emit_cpd_block(m, spec)
        k4 = restore_kernel(m.to_tensor(), 3)
        x = rng.standard_normal((6, 6, 5))
        dev = np.linalg.norm(
            compose_forward(layers, x) - conv2d_reference(x, spec, k4)
        )
        assert dev <= 1e-8 * (1 + np.linalg.norm(x))

    def test_channel_permutation_invariance(self):
        rng = np.random.default_rng(7)
        m = random_model(rng, 3, 5, 4, 3)
        spec = ConvSpec(5, 4, 3)
        perm = np.array([2, 0, 1])
        permuted = CPModel(m.A[:, perm], m.B[:, perm], m.C[:, perm])
        x = rng.standard_normal((5, 5, 5))
        out1 = compose_forward(emit_cpd_block(m, spec), x)
        out2 = compose_forward(emit_cpd_block(permuted, spec), x)
        assert np.max(np.abs(out1 - out2)) < 1e-12

    def test_shape_mismatch_error(self):
        rng = np.random.default_rng(8)
        m = random_model(rng, 3, 5, 4, 2)
        with pytest.raises(ValueError):
            emit_cpd_block(m, ConvSpec(6, 4, 3))


class TestTkdCpdBlock:
    def make_hybrid(self, rng, d, s, t, r1, r2, r):
        u, _ = np.linalg.qr(rng.standard_normal((s, r1)))
        v, _ = np.linalg.qr(rng.standard_normal((t, r2)))
        core = CPModel(
            rng.standard_normal((d * d, r)),
            rng.standard_normal((r1, r)),
            rng.standard_normal((r2, r)),
        )
        return HybridModel(u, v, core)

    def test_parameter_formula(self):
        rng = np.random.default_rng(9)
        h = self.make_hybrid(rng, 3, 64, 64, 16, 16, 64)
        layers = emit_tkd_cpd_block(h, ConvSpec(64, 64, 3))
        total = sum(l.weights.size for l in layers)
        assert total == 16 * 64 + 16 * 64 + 64 * (9 + 16 + 16)
        assert total == h.param_count()
        # the two outer 1x1 layers carry exactly the R1*S + R2*T subtotal
        assert layers[0].weights.size + layers[-1].weights.size == 16 * 64 * 2

    def test_forward_equivalence(self):
        rng = np.random.default_rng(10)
        h = self.make_hybrid(rng, 3, 6, 7, 2, 3, 4)
        spec = ConvSpec(6, 7, 3, stride=1, pad=1, bias=rng.standard_normal(7))
        layers = emit_tkd_cpd_block(h, spec)
        k4 = restore_kernel(h.to_tensor(), 3)
        x = rng.standard_normal((6, 5, 6))
        assert np.max(
            np.abs(conv2d_reference(x, spec, k4) - compose_forward(layers, x))
        ) < 1e-10

    def test_identity_factors_match_cpd_block(self):
        rng = np.random.default_rng(11)
        d, s, t, r = 3, 4, 5, 6
        core = CPModel(
            rng.standard_normal((d * d, r)),
            rng.standard_normal((s, r)),
            rng.standard_normal((t, r)),
        )
        h = HybridModel(np.eye(s), np.eye(t), core)
        spec = ConvSpec(s, t, d, pad=1)
        x = rng.standard_normal((6, 6, s))
        out5 = compose_forward(emit_tkd_cpd_block(h, spec), x)
        out3 = compose_forward(emit_cpd_block(core, spec), x)
        assert np.max(np.abs(out5 - out3)) < 1e-12

    def test_rank_below_both_multilinear_ranks_still_exact(self):
        # merging would give a smaller block, but the 5-layer one is exact
        rng = np.random.default_rng(12)
        h = self.make_hybrid(rng, 3, 8, 8, 4, 4, 2)  # R below both
        spec = ConvSpec(8, 8, 3, pad=1)
        layers = emit_tkd_cpd_block(h, spec)
        x = rng.standard_normal((5, 6, 8))
        k4 = restore_kernel(h.to_tensor(), 3)
        assert np.max(
            np.abs(conv2d_reference(x, spec, k4) - compose_forward(layers, x))
        ) < 1e-10
        got = block_factors(layers, "tkd-cpd")
        want = to_equivalent_cp(h)
        for f, g in ((want.A, got.A), (want.B, got.B), (want.C, got.C)):
            assert np.allclose(f, g, rtol=0, atol=1e-12)

    def test_inner_layers_are_the_cpd_block_of_the_core(self):
        rng = np.random.default_rng(24)
        h = self.make_hybrid(rng, 3, 6, 7, 2, 3, 4)
        spec = ConvSpec(6, 7, 3, stride=2, pad=1, bias=rng.standard_normal(7))
        inner = emit_tkd_cpd_block(h, spec)[1:4]
        core = emit_cpd_block(h.core_cp, ConvSpec(2, 3, 3, stride=2, pad=1))
        for got, want in zip(inner, core, strict=True):
            assert got.weights.shape == want.weights.shape
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.bias is None and want.bias is None
            assert (got.in_channels, got.out_channels, got.kernel, got.groups,
                    got.stride, got.pad) == (want.in_channels, want.out_channels,
                                             want.kernel, want.groups,
                                             want.stride, want.pad)


def svd_model(matrix, rank):
    """The CP model ``fit`` builds for svd from a (T x S) 1x1 kernel matrix."""
    return fit(matrix.T[None], "svd", rank)[0]


class TestSvdBlock:
    @pytest.mark.parametrize("stride, pad", [(1, 0), (2, 0), (1, 1), (2, 1)])
    def test_full_rank_exact(self, stride, pad):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((5, 7))
        spec = ConvSpec(7, 5, 1, stride=stride, pad=pad)
        layers = emit_svd_block(svd_model(m, 5), spec)
        x = rng.standard_normal((3, 3, 7))
        k = block_to_kernel(layers, "svd")
        assert np.max(np.abs(k[0, 0].T - m)) < 1e-10
        assert np.max(
            np.abs(conv2d_reference(x, spec, k) - compose_forward(layers, x))
        ) < 1e-10

    def test_rank1_matrix(self):
        rng = np.random.default_rng(14)
        m = np.outer(rng.standard_normal(4), rng.standard_normal(6))
        layers = emit_svd_block(svd_model(m, 1), ConvSpec(6, 4, 1))
        k = block_to_kernel(layers, "svd")
        assert np.max(np.abs(k[0, 0].T - m)) < 1e-12

    def test_truncation_tail_oracle(self):
        rng = np.random.default_rng(15)
        m = rng.standard_normal((8, 6))
        layers = emit_svd_block(svd_model(m, 3), ConvSpec(6, 8, 1))
        approx = block_to_kernel(layers, "svd")[0, 0].T
        sing = np.linalg.svd(m, compute_uv=False)
        assert np.linalg.norm(m - approx) == pytest.approx(
            np.sqrt(np.sum(sing[3:] ** 2)), rel=1e-10
        )

    def test_requires_1x1(self):
        with pytest.raises(ValueError):
            emit_svd_block(svd_model(np.zeros((4, 4)), 2), ConvSpec(4, 4, 3))

    def test_model_must_match_the_spec(self):
        with pytest.raises(ValueError, match="does not match spec"):
            emit_svd_block(svd_model(np.ones((4, 5)), 2), ConvSpec(4, 5, 1))


class TestCountParamsFlops:
    def test_single_pointwise_closed_form(self):
        rng = np.random.default_rng(16)
        s, t, h, w = 6, 9, 10, 11
        layers = emit_svd_block(svd_model(rng.standard_normal((t, s)), min(s, t)),
                                ConvSpec(s, t, 1))
        # take only the first layer: plain 1x1 s -> r
        layer = layers[0]
        params, flops = count_params_flops([layer], (h, w))
        r = layer.out_channels
        assert params == s * r
        assert flops == 2 * h * w * s * r

    def test_cpd_block_with_bias(self):
        rng = np.random.default_rng(17)
        m = random_model(rng, 3, 64, 64, 100)
        spec = ConvSpec(64, 64, 3, bias=rng.standard_normal(64))
        params, _ = count_params_flops(emit_cpd_block(m, spec), (56, 56))
        assert params == 13700 + 64

    def test_chain_mismatch_error(self):
        rng = np.random.default_rng(18)
        a = emit_svd_block(svd_model(rng.standard_normal((5, 4)), 2), ConvSpec(4, 5, 1))
        b = emit_svd_block(svd_model(rng.standard_normal((3, 4)), 2), ConvSpec(4, 3, 1))
        # first layer emits 5 channels, second expects 4
        with pytest.raises(ValueError, match="chain"):
            count_params_flops([a[1], b[0]], (4, 4))

    def test_stride_affects_downstream_flops(self):
        rng = np.random.default_rng(19)
        m = random_model(rng, 3, 4, 4, 2)
        spec1 = ConvSpec(4, 4, 3, stride=1, pad=1)
        spec2 = ConvSpec(4, 4, 3, stride=2, pad=1)
        _, f1 = count_params_flops(emit_cpd_block(m, spec1), (8, 8))
        _, f2 = count_params_flops(emit_cpd_block(m, spec2), (8, 8))
        assert f2 < f1


class TestBlockToKernel:
    def test_cpd_roundtrip(self):
        rng = np.random.default_rng(20)
        for d in (1, 2, 3, 4):
            m = random_model(rng, d, 5, 6, 3)
            layers = emit_cpd_block(m, ConvSpec(5, 6, d))
            # depthwise filter r holds column r of A in row-major tap order
            for r in range(m.rank):
                assert np.array_equal(layers[1].weights[r, 0],
                                      m.A[:, r].reshape(d, d))
            k = block_to_kernel(layers, "cpd")
            assert np.max(np.abs(k - restore_kernel(m.to_tensor(), d))) < 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            block_to_kernel([], "nope")


class TestBlockFactors:
    """``block_factors`` inverts each emitter."""

    def test_cpd(self):
        rng = np.random.default_rng(21)
        m = random_model(rng, 3, 5, 6, 4)
        got = block_factors(emit_cpd_block(m, ConvSpec(5, 6, 3)), "cpd")
        for f, g in ((m.A, got.A), (m.B, got.B), (m.C, got.C)):
            assert np.array_equal(f, g)

    def test_tkd_cpd_is_equivalent_cp(self):
        rng = np.random.default_rng(22)
        h = TestTkdCpdBlock().make_hybrid(rng, 3, 6, 7, 2, 3, 4)
        got = block_factors(emit_tkd_cpd_block(h, ConvSpec(6, 7, 3)), "tkd-cpd")
        want = to_equivalent_cp(h)
        for f, g in ((want.A, got.A), (want.B, got.B), (want.C, got.C)):
            assert np.allclose(f, g, rtol=0, atol=1e-12)

    def test_svd(self):
        rng = np.random.default_rng(23)
        m = rng.standard_normal((5, 7))
        layers = emit_svd_block(svd_model(m, 3), ConvSpec(7, 5, 1))
        got = block_factors(layers, "svd")
        assert np.array_equal(got.A, np.ones((1, 3)))
        assert np.array_equal(got.B, layers[0].weights[:, :, 0, 0].T)
        assert np.array_equal(got.C, layers[1].weights[:, :, 0, 0])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            block_factors([], "nope")


class TestBlockBasis:
    """``block_basis`` is the block's kernel in its factors' column spaces:
    the conv ``verify`` runs on it is the conv with the dense kernel."""

    @staticmethod
    def block(kind, rng, stride, pad):
        """(layers, spec) of a block with a bias; kind ``cpd-over-rank`` is a
        cpd block of rank 9 on 6 input and 7 output channels."""
        bias = rng.standard_normal(7)
        if kind == "svd":
            spec = ConvSpec(5, 7, 1, stride=stride, pad=pad, bias=bias)
            return emit_svd_block(svd_model(rng.standard_normal((7, 5)), 3), spec), spec
        spec = ConvSpec(6, 7, 3, stride=stride, pad=pad, bias=bias)
        if kind == "tkd-cpd":  # the 5-layer block, emitted directly
            h = TestTkdCpdBlock().make_hybrid(rng, 3, 6, 7, 2, 3, 4)
            return emit_tkd_cpd_block(h, spec), spec
        rank = {"cpd": 4, "cpd-over-rank": 9}[kind]
        return emit_cpd_block(random_model(rng, 3, 6, 7, rank), spec), spec

    @pytest.mark.parametrize("stride, pad", itertools.product((1, 2), (0, 1)))
    @pytest.mark.parametrize("kind, channels", [
        ("cpd", (4, 4)), ("cpd-over-rank", (6, 7)), ("tkd-cpd", (4, 4)),
        ("svd", (3, 3)),
    ])
    def test_reference_in_the_basis_is_the_dense_conv(self, kind, channels,
                                                      stride, pad):
        rng = np.random.default_rng(40)
        layers, spec = self.block(kind, rng, stride, pad)
        kind = kind.removesuffix("-over-rank")
        d = spec.kernel_size
        q_b, g, q_c = block_basis(layers, kind)
        # G has min(S, R) input and min(T, R) output channels
        assert g.shape == (d, d, *channels)
        assert q_b.shape == (spec.in_channels, channels[0])
        assert q_c.shape == (spec.out_channels, channels[1])
        dense = block_to_kernel(layers, kind)
        assert np.allclose(np.einsum("ijab,sa,tb->ijst", g, q_b, q_c), dense,
                           rtol=0, atol=1e-12 * np.abs(dense).max())
        x = rng.standard_normal((7, 6, spec.in_channels))
        core = ConvSpec(*channels, d, stride=stride, pad=pad)
        got = conv2d_reference(x @ q_b, core, g) @ q_c.T + spec.bias
        want = conv2d_reference(x, spec, dense)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
