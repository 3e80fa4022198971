import numpy as np
import pytest

from conftest import finite_difference, vector_rel_err
from fescycle.errors import ShapeMismatch
from fescycle.nets import Adam, Mlp, _back_through, split


def manual_forward(net, x):
    """Loop-based re-implementation used as the duplicate oracle."""
    h = [float(v) for v in x]
    n_layers = len(net.layer_sizes) - 1
    for li in range(n_layers):
        w = net.params[2 * li]
        b = net.params[2 * li + 1]
        out = []
        for j in range(w.shape[1]):
            acc = b[j]
            for i in range(w.shape[0]):
                acc += h[i] * w[i, j]
            out.append(acc)
        if li < n_layers - 1:
            out = [v if v > 0.0 else 0.0 for v in out]
        h = out
    return np.array(h)


class TestForward:
    def test_zero_network_outputs_zero(self):
        net = Mlp([3, 4, 2])
        for p in net.params:
            p[:] = 0.0
        assert np.all(net.forward(np.ones(3)) == 0.0)

    def test_identity_path(self):
        net = Mlp([2, 2, 1])
        for p in net.params:
            p[:] = 0.0
        net.params[0][0, 0] = 1.0  # x0 -> hidden0
        net.params[2][0, 0] = 1.0  # hidden0 -> out
        assert net.forward(np.array([3.5, -1.0]))[0] == 3.5
        # ReLU blocks the negative branch
        assert net.forward(np.array([-2.0, 5.0]))[0] == 0.0

    def test_matches_manual_reimplementation(self):
        rng = np.random.default_rng(42)
        net = Mlp([5, 7, 6, 3], rng)
        for _ in range(20):
            x = rng.standard_normal(5)
            got = net.forward(x)
            want = manual_forward(net, x)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_batched_equals_rowwise(self):
        rng = np.random.default_rng(1)
        net = Mlp([4, 8, 2], rng)
        xs = rng.standard_normal((6, 4))
        batched = net.forward(xs)
        for i in range(6):
            np.testing.assert_allclose(batched[i], net.forward(xs[i]), rtol=0, atol=1e-12)

    def test_shape_mismatch(self):
        net = Mlp([4, 8, 2])
        with pytest.raises(ShapeMismatch):
            net.forward(np.zeros(5))


class TestBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        net = Mlp([4, 8, 8, 3], rng)
        x = rng.standard_normal((5, 4))
        g_out = rng.standard_normal((5, 3))
        _, cache = net.forward_cached(x)
        grads, _ = net.backward(cache, g_out)

        def value():
            return float(np.sum(net.forward(x) * g_out))

        fd = finite_difference(net.params, value, h=1e-5)
        assert vector_rel_err(grads, fd) < 1e-4

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        net = Mlp([4, 8, 3], rng)
        x = rng.standard_normal((2, 4))
        g_out = rng.standard_normal((2, 3))
        _, cache = net.forward_cached(x)
        _, gin = net.backward(cache, g_out)

        def value():
            return float(np.sum(net.forward(x) * g_out))

        fd = finite_difference([x], value, h=1e-6)[0]
        assert vector_rel_err([gin], [fd]) < 1e-4

    def test_zero_output_grad_gives_zero_grads(self):
        rng = np.random.default_rng(3)
        net = Mlp([3, 5, 2], rng)
        _, cache = net.forward_cached(rng.standard_normal((4, 3)))
        grads, gin = net.backward(cache, np.zeros((4, 2)))
        assert all(np.all(g == 0.0) for g in grads)
        assert np.all(gin == 0.0)

    def test_dead_relu_unit_blocks_gradient(self):
        net = Mlp([1, 2, 1])
        for p in net.params:
            p[:] = 0.0
        net.params[0][0, 0] = 1.0   # unit 0 pre-activation = x
        net.params[0][0, 1] = -1.0  # unit 1 pre-activation = -x (dead for x>0)
        net.params[2][:, 0] = 1.0
        _, cache = net.forward_cached(np.array([2.0]))
        grads, _ = net.backward(cache, np.array([1.0]))
        w1_grad = split(grads, net.shapes)[0]
        # incoming weight of the dead unit gets no gradient
        assert w1_grad[0, 1] == 0.0
        assert w1_grad[0, 0] != 0.0


class TestFlatParameters:
    def test_params_are_views_of_flat(self):
        net = Mlp([3, 5, 2], np.random.default_rng(0))
        assert all(np.shares_memory(p, net.flat) for p in net.params)
        assert [p.shape for p in net.params] == net.shapes
        net.params[2][1, 0] = 7.0
        assert net.flat[3 * 5 + 5 + 1 * 2 + 0] == 7.0
        net.flat[-1] = -3.0
        assert net.params[-1][-1] == -3.0

    def test_copy_is_independent(self):
        net = Mlp([3, 5, 2], np.random.default_rng(0))
        clone = net.copy()
        clone.params[0][0, 0] += 1.0
        assert clone.flat[0] != net.flat[0]
        assert all(np.shares_memory(p, clone.flat) for p in clone.params)

    def test_split_rejects_wrong_size(self):
        with pytest.raises(ShapeMismatch):
            split(np.zeros(5), [(2, 2)])


class TestLeanBackward:
    @pytest.mark.parametrize("sizes", [[4, 8, 8, 3], [6, 16, 16, 1]])
    def test_partial_backward_equals_full(self, sizes):
        rng = np.random.default_rng(11)
        net = Mlp(sizes, rng)
        _, cache = net.forward_cached(rng.standard_normal((9, sizes[0])))
        g_out = rng.standard_normal((9, sizes[-1]))
        full_params, full_input = net.backward(cache, g_out)
        params_only, none_input = net.backward(cache, g_out, input_grad=False)
        none_params, input_only = net.backward(cache, g_out, param_grad=False)
        assert none_input is None and none_params is None
        np.testing.assert_array_equal(params_only, full_params)
        np.testing.assert_array_equal(input_only, full_input)

    def test_width_one_output_layer_matches_gemm(self):
        rng = np.random.default_rng(12)
        delta = rng.standard_normal((2560, 1))
        w = rng.standard_normal((64, 1))
        np.testing.assert_array_equal(_back_through(delta, w), delta @ w.T)

    def test_gradient_layout_matches_params(self):
        rng = np.random.default_rng(13)
        net = Mlp([3, 4, 2], rng)
        x = rng.standard_normal((5, 3))
        g_out = rng.standard_normal((5, 2))
        _, cache = net.forward_cached(x)
        grads, _ = net.backward(cache, g_out)
        w1, b1, w2, b2 = split(grads, net.shapes)
        h = np.maximum(x @ net.params[0] + net.params[1], 0.0)
        np.testing.assert_allclose(w2, h.T @ g_out, rtol=1e-12)
        np.testing.assert_allclose(b2, g_out.sum(axis=0), rtol=1e-12)


class TestReusedBuffers:
    def _pair(self, sizes, seed):
        """A float32 net that reuses buffers and an allocating twin."""
        fresh = Mlp(sizes, np.random.default_rng(seed)).copy(np.float32)
        reusing = fresh.copy()
        reusing.reuse_buffers({})
        return fresh, reusing

    @pytest.mark.parametrize("sizes", [[5, 64, 64, 4], [9, 64, 64, 1]])
    def test_same_values_as_fresh_arrays(self, sizes):
        fresh, reusing = self._pair(sizes, 20)
        rng = np.random.default_rng(21)
        for rows in (7, 256, 7, 2560, 256):
            x = rng.standard_normal((rows, sizes[0])).astype(np.float32)
            g_out = rng.standard_normal((rows, sizes[-1])).astype(np.float32)
            y_ref, c_ref = fresh.forward_cached(x)
            y, cache = reusing.forward_cached(x)
            np.testing.assert_array_equal(y, y_ref)
            for got, want in zip(reusing.backward(cache, g_out), fresh.backward(c_ref, g_out)):
                np.testing.assert_array_equal(got, want)

    def test_buffers_are_reused_per_row_count(self):
        _, net = self._pair([4, 8, 8, 2], 22)
        rng = np.random.default_rng(23)
        _, (h_a, _) = net.forward_cached(rng.standard_normal((6, 4)))
        _, (h_b, _) = net.forward_cached(rng.standard_normal((6, 4)))
        _, (h_c, _) = net.forward_cached(rng.standard_normal((3, 4)))
        assert all(a is b for a, b in zip(h_a[1:], h_b[1:]))
        assert not any(np.shares_memory(a, c) for a, c in zip(h_a[1:], h_c[1:]))

    def test_cache_survives_forwards_at_other_row_counts(self):
        fresh, reusing = self._pair([4, 8, 8, 2], 24)
        rng = np.random.default_rng(25)
        x = rng.standard_normal((6, 4)).astype(np.float32)
        g_out = rng.standard_normal((6, 2)).astype(np.float32)
        _, cache = reusing.forward_cached(x)
        reusing.forward_cached(rng.standard_normal((12, 4)))
        _, c_ref = fresh.forward_cached(x)
        for got, want in zip(reusing.backward(cache, g_out), fresh.backward(c_ref, g_out)):
            np.testing.assert_array_equal(got, want)

    def test_outputs_and_gradients_stay_with_the_caller(self):
        _, net = self._pair([4, 8, 8, 2], 26)
        net2 = net.copy()
        net2.reuse_buffers(net.scratch)
        rng = np.random.default_rng(27)
        y, cache = net.forward_cached(rng.standard_normal((6, 4)))
        grad, grad_in = net.backward(cache, np.ones((6, 2)))
        kept = [a.copy() for a in (y, grad, grad_in)]
        for other in (net, net2):
            _, c = other.forward_cached(rng.standard_normal((6, 4)))
            other.backward(c, rng.standard_normal((6, 2)))
        for a, b in zip((y, grad, grad_in), kept):
            np.testing.assert_array_equal(a, b)

    def test_copies_allocate(self):
        _, net = self._pair([4, 8, 2], 28)
        clone = net.copy()
        assert clone.scratch is None and clone._acts is None


def reference_adam_step(opt, arrays, grads, moments_m, moments_v, t):
    """The per-array Adam update the flat step replaced."""
    b1c = 1.0 - opt.beta1**t
    b2c = 1.0 - opt.beta2**t
    for p, g, m, v in zip(arrays, grads, moments_m, moments_v):
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * (g * g)
        p -= opt.lr * (m / b1c) / (np.sqrt(v / b2c) + opt.eps)


class TestAdam:
    def test_flat_step_bitwise_equals_per_array_reference(self):
        rng = np.random.default_rng(5)
        net = Mlp([5, 16, 16, 3], rng)
        flat = net.flat.copy()
        arrays = [p.copy() for p in net.params]
        opt = Adam(net.shapes, lr=3e-4)
        ref_m = [np.zeros(s) for s in net.shapes]
        ref_v = [np.zeros(s) for s in net.shapes]
        for t in range(1, 6):
            grads = rng.standard_normal(flat.size) * 10.0 ** rng.integers(-4, 2)
            opt.step(flat, grads)
            reference_adam_step(opt, arrays, split(grads, net.shapes), ref_m, ref_v, t)
        for got, ref in ((flat, arrays), (opt.m, ref_m), (opt.v, ref_v)):
            np.testing.assert_array_equal(got, np.concatenate([a.ravel() for a in ref]))

    def test_quadratic_convergence(self):
        params = np.array([5.0, -3.0])
        opt = Adam([params.shape], lr=0.05)
        for _ in range(2000):
            opt.step(params, 2.0 * (params - np.array([1.0, 2.0])))
        np.testing.assert_allclose(params, [1.0, 2.0], atol=1e-4)

    def test_state_round_trip(self):
        rng = np.random.default_rng(0)
        shapes = [(3, 2), (2,)]
        params = rng.standard_normal(8)
        opt = Adam(shapes, lr=1e-3)
        for _ in range(5):
            opt.step(params, np.ones(8))
        state = opt.to_state()
        assert [np.shape(a) for a in state["m"]] == shapes
        clone = Adam.from_state(state, shapes, "test")
        assert clone.t == opt.t
        np.testing.assert_array_equal(clone.m, opt.m)
        np.testing.assert_array_equal(clone.v, opt.v)
        # both optimizers continue identically
        p1 = params.copy()
        p2 = params.copy()
        g = rng.standard_normal(8)
        opt.step(p1, g)
        clone.step(p2, g)
        np.testing.assert_array_equal(p1, p2)
