"""Tensor-train layer: contraction, dense operator, exact gradients, squash."""
import copy
import pickle
import re

import numpy as np
import pytest

from evifed import ttn
from evifed.ttn import TTLayerParams
from oracle import ttn_backward_per_core, ttn_forward_chain


def identity_params(dims):
    cores = []
    for d in dims:
        core = np.zeros((1, d, d, 1))
        core[0, :, :, 0] = np.eye(d)
        cores.append(core)
    return TTLayerParams(cores)


def random_params(input_dims, output_dims, rank, rng):
    """Uniform [-0.8, 0.8] cores."""
    ranks = [1] + [rank] * (len(input_dims) - 1) + [1]
    return TTLayerParams([rng.uniform(-0.8, 0.8, size=(ranks[l], i, o, ranks[l + 1]))
                          for l, (i, o) in enumerate(zip(input_dims, output_dims))])


# --- construction ----------------------------------------------------------

def test_sizes_are_read_off_the_cores():
    p = TTLayerParams([np.zeros((1, 2, 3, 4)), np.zeros((4, 5, 1, 1))])
    assert (p.input_dims, p.output_dims) == ([2, 5], [3, 1])
    assert (p.in_size, p.out_size) == (10, 3)


CORES_REFUSED = re.escape("need four-index cores whose ranks chain from 1 to 1, "
                          "got shapes ")


def test_core_shape_validation():
    with pytest.raises(ValueError, match=CORES_REFUSED + re.escape(
            "[(1, 2, 2, 1), (1, 2, 3)]")):
        TTLayerParams([np.zeros((1, 2, 2, 1)), np.zeros((1, 2, 3))])


def test_a_layer_needs_a_core():
    with pytest.raises(ValueError, match=CORES_REFUSED + re.escape("[]")):
        TTLayerParams([])


def test_boundary_ranks_must_be_one():
    with pytest.raises(ValueError, match=CORES_REFUSED):
        TTLayerParams([np.zeros((2, 2, 2, 2)), np.zeros((2, 2, 2, 1))])


@pytest.mark.parametrize("shapes", [[(1, 2, 2, 2), (2, 2, 2, 2)],
                                    [(1, 2, 2, 2), (3, 2, 2, 1)]],
                         ids=["right_boundary", "inner"])
def test_ranks_must_chain_from_one_to_one(shapes):
    with pytest.raises(ValueError, match=CORES_REFUSED):
        TTLayerParams([np.zeros(s) for s in shapes])


def test_param_count_mnist_topology():
    rng = np.random.default_rng(0)
    p = random_params([2, 7, 7, 2], [1, 2, 2, 1], 2, rng)
    assert ttn.ttn_param_count(p) == 120


def test_param_count_ten_feature_topology():
    rng = np.random.default_rng(0)
    p = random_params([2, 5], [2, 2], 2, rng)
    assert ttn.ttn_param_count(p) == 28


def test_param_count_single_mode_topology():
    rng = np.random.default_rng(0)
    p = random_params([7], [3], 2, rng)
    assert ttn.ttn_param_count(p) == 21


def test_param_count_matches_stored_scalars():
    rng = np.random.default_rng(1)
    p = random_params([3, 4], [2, 3], 3, rng)
    assert ttn.ttn_param_count(p) == sum(c.size for c in p.cores)


# --- forward ---------------------------------------------------------------

def test_identity_cores_pass_input_through():
    p = identity_params([2, 3])
    x = np.arange(6, dtype=float)
    assert np.allclose(ttn.ttn_forward(p, x), x)


def test_zero_cores_give_zero_output():
    rng = np.random.default_rng(2)
    p = random_params([2, 3], [2, 2], 2, rng)
    for core in p.cores:
        core[...] = 0.0
    assert np.allclose(ttn.ttn_forward(p, rng.normal(size=6)), 0.0)


def test_forward_matches_dense_oracle():
    # The oracle contracts the input with one core at a time; the layer
    # applies the contracted operator.
    rng = np.random.default_rng(3)
    for _ in range(25):
        p = random_params([2, 3, 2], [2, 2, 3], 2, rng)
        x = rng.normal(size=12)
        expect = ttn_forward_chain(p, x)
        assert np.max(np.abs(ttn.ttn_forward(p, x) - expect)) < 1e-10
        assert np.max(np.abs(ttn.materialize_dense(p) @ x - expect)) < 1e-10


def test_forward_matches_dense_oracle_at_full_scale():
    rng = np.random.default_rng(4)
    for _ in range(100):
        p = random_params([2, 7, 7, 2], [1, 2, 2, 1], 2, rng)
        x = rng.normal(size=196)
        expect = ttn_forward_chain(p, x)
        assert np.max(np.abs(ttn.ttn_forward(p, x) - expect)) < 1e-10
        assert np.max(np.abs(ttn.materialize_dense(p) @ x - expect)) < 1e-10


def test_forward_rejects_wrong_input_length():
    rng = np.random.default_rng(5)
    p = random_params([2, 3], [2, 2], 2, rng)
    with pytest.raises(ValueError):
        ttn.ttn_forward(p, np.zeros(5))


def test_layer_is_linear():
    rng = np.random.default_rng(6)
    p = random_params([3, 2], [2, 2], 2, rng)
    x, y = rng.normal(size=6), rng.normal(size=6)
    fx, fy = ttn.ttn_forward(p, x), ttn.ttn_forward(p, y)
    assert np.max(np.abs(ttn.ttn_forward(p, x + y) - fx - fy)) < 1e-10
    assert np.max(np.abs(ttn.ttn_forward(p, 2.5 * x) - 2.5 * fx)) < 1e-10


# --- dense materialization -------------------------------------------------

def test_materialize_identity():
    assert np.allclose(ttn.materialize_dense(identity_params([2, 2])), np.eye(4))


def test_materialize_rank_one_is_kronecker():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(1, 2, 2, 1))
    b = rng.normal(size=(1, 3, 2, 1))
    p = TTLayerParams([a, b])
    expect = np.kron(a[0, :, :, 0].T, b[0, :, :, 0].T)
    assert np.allclose(ttn.materialize_dense(p), expect)


def test_materialize_columns_match_basis_probes():
    rng = np.random.default_rng(8)
    p = random_params([2, 3], [2, 2], 2, rng)
    dense = ttn.materialize_dense(p)
    for i in range(6):
        e = np.zeros(6)
        e[i] = 1.0
        assert np.allclose(dense[:, i], ttn_forward_chain(p, e))


def test_in_place_core_write_reaches_the_next_operator():
    # Adam and full_gradient_fd write one core element in place between calls.
    rng = np.random.default_rng(10)
    p = random_params([2, 3], [2, 2], 2, rng)
    before = ttn.materialize_dense(p).copy()
    p.cores[1][1, 2, 0, 0] += 1e-5
    after = ttn.materialize_dense(p)
    fresh = TTLayerParams([core.copy() for core in p.cores])
    assert not np.array_equal(after, before)
    assert np.array_equal(after, ttn.materialize_dense(fresh))


def test_operator_is_read_only():
    rng = np.random.default_rng(11)
    dense = ttn.materialize_dense(random_params([2, 3], [2, 2], 2, rng))
    with pytest.raises(ValueError):
        dense[0, 0] = 1.0


@pytest.mark.parametrize("clone", [copy.deepcopy,
                                   lambda p: pickle.loads(pickle.dumps(p))],
                         ids=["deepcopy", "pickle"])
def test_copied_layer_hands_out_a_read_only_operator(clone):
    # A copy of a read-only array is writable, so a copy must not carry the
    # memo: it contracts its own operator, equal to the original's.
    rng = np.random.default_rng(12)
    p = random_params([2, 3], [2, 2], 2, rng)
    dense = ttn.materialize_dense(p)
    copied = clone(p)
    assert copied._dense is None
    again = ttn.materialize_dense(copied)
    assert np.array_equal(again, dense)
    with pytest.raises(ValueError):
        again[0, 0] = 1.0


def test_materialize_respects_capacity():
    rng = np.random.default_rng(9)
    p = random_params([40, 40], [40, 40], 1, rng)
    with pytest.raises(ValueError):
        ttn.materialize_dense(p)
    with pytest.raises(ValueError, match="DENSE_CAP"):
        ttn.ttn_forward(p, np.zeros(p.in_size))
    with pytest.raises(ValueError, match="DENSE_CAP"):
        ttn.ttn_backward(p, np.zeros(p.in_size), np.zeros(p.out_size))


def test_forward_rejects_input_of_more_than_two_axes():
    p = random_params([2, 3], [2, 2], 2, np.random.default_rng(9))
    with pytest.raises(ValueError):
        ttn.ttn_forward(p, np.zeros((2, 2, 6)))


@pytest.mark.parametrize("input_dims,output_dims", [
    ([5], [3]), ([2, 5], [2, 2]), ([2, 7, 7, 2], [1, 2, 2, 1])])
def test_rows_match_per_row_forward_and_summed_backward(input_dims, output_dims):
    # A (B, d) input is B independent inputs; the backward pass over (B, out)
    # upstream rows is the sum of the B per-row gradients.
    rng = np.random.default_rng(14)
    p = random_params(input_dims, output_dims, 2, rng)
    x = rng.normal(size=(7, p.in_size))
    up = rng.normal(size=(7, p.out_size))
    y = ttn.ttn_forward(p, x)
    assert y.shape == (7, p.out_size)
    for row, xi in zip(y, x):
        assert np.max(np.abs(row - ttn.ttn_forward(p, xi))) < 1e-12
    per_row = [ttn.ttn_backward(p, xi, ui) for xi, ui in zip(x, up)]
    for l, g in enumerate(ttn.ttn_backward(p, x, up)):
        assert g.shape == p.cores[l].shape
        assert np.max(np.abs(g - sum(grads[l] for grads in per_row))) < 1e-12


def test_backward_rejects_upstream_rows_not_matching_inputs():
    rng = np.random.default_rng(15)
    p = random_params([2, 3], [2, 2], 2, rng)
    with pytest.raises(ValueError, match="upstream"):
        ttn.ttn_backward(p, rng.normal(size=(7, 6)), rng.normal(size=(6, 4)))


# --- backward --------------------------------------------------------------

@pytest.mark.parametrize("b", [1, 7, 64])
@pytest.mark.parametrize("input_dims,output_dims", [
    ([2, 7, 7, 2], [1, 2, 2, 1]), ([2, 5], [2, 2]), ([5], [3]), ([3, 4], [2, 3])])
def test_backward_matches_per_core_environment_oracle(input_dims, output_dims, b):
    # The oracle builds each core's environments from scratch and contracts
    # every sample with them; the layer contracts the summed outer product.
    rng = np.random.default_rng(16)
    p = random_params(input_dims, output_dims, 3, rng)
    x = rng.normal(size=(b, p.in_size))
    up = rng.normal(size=(b, p.out_size))
    expect = ttn_backward_per_core(p, x, up)
    got = ttn.ttn_backward(p, x, up)
    assert len(got) == len(expect)
    for g, e in zip(got, expect):
        assert g.shape == e.shape
        assert np.max(np.abs(g - e)) < 1e-12


def test_zero_upstream_gives_zero_gradients():
    rng = np.random.default_rng(10)
    p = random_params([2, 3], [2, 2], 2, rng)
    core_grads = ttn.ttn_backward(p, rng.normal(size=6), np.zeros(4))
    for g in core_grads:
        assert np.allclose(g, 0.0)


def test_single_core_gradient_is_outer_product():
    rng = np.random.default_rng(11)
    p = random_params([4], [3], 1, rng)
    x = rng.normal(size=4)
    up = rng.normal(size=3)
    core_grads = ttn.ttn_backward(p, x, up)
    assert np.allclose(core_grads[0][0, :, :, 0], np.outer(x, up))


def _fd_core_grads(p, x, upstream, step=1e-5):
    grads = []
    for core in p.cores:
        g = np.zeros_like(core)
        flat = core.reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + step
            hi = float(upstream @ ttn.ttn_forward(p, x))
            flat[i] = old - step
            lo = float(upstream @ ttn.ttn_forward(p, x))
            flat[i] = old
            g.reshape(-1)[i] = (hi - lo) / (2 * step)
        grads.append(g)
    return grads


def test_core_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = random_params([2, 3, 2], [2, 1, 2], 2, rng)
        x = rng.normal(size=12)
        up = rng.normal(size=4)
        analytic = ttn.ttn_backward(p, x, up)
        for a, f in zip(analytic, _fd_core_grads(p, x, up)):
            scale = np.maximum(np.abs(f), 1e-6)
            assert np.max(np.abs(a - f) / scale) < 1e-4


# --- squash ----------------------------------------------------------------

def test_squash_at_zero_is_quarter_pi():
    assert ttn.squash(np.zeros(3)) == pytest.approx(np.pi / 4)


def test_squash_saturates_at_half_pi():
    assert ttn.squash(np.array([40.0]))[0] == pytest.approx(np.pi / 2)
    assert ttn.squash(np.array([-40.0]))[0] == pytest.approx(0.0, abs=1e-12)


def test_squash_grad_matches_finite_difference():
    rng = np.random.default_rng(13)
    y = rng.normal(size=20) * 3
    step = 1e-6
    fd = (ttn.squash(y + step) - ttn.squash(y - step)) / (2 * step)
    assert np.max(np.abs(ttn.squash_grad(y) - fd)) < 1e-8


def test_squash_and_grad_saturate_without_overflow():
    # exp(-y) overflowed below y = -709.78 (RuntimeWarning, then 0 anyway).
    y = np.array([-1000.0, 0.0, 1000.0])
    with np.errstate(all="raise"):
        assert np.array_equal(ttn.squash(y), [0.0, np.pi / 4, np.pi / 2])
        assert np.array_equal(ttn.squash_grad(y), [0.0, np.pi / 8, 0.0])


def test_squash_keeps_the_logistic_formula_bit_for_bit():
    y = np.concatenate([np.linspace(-709.0, 709.0, 4001),
                        np.random.default_rng(14).normal(size=200) * 5])
    s = 1.0 / (1.0 + np.exp(-y))
    assert np.array_equal(ttn.squash(y), (np.pi / 2) / (1.0 + np.exp(-y)))
    assert np.array_equal(ttn.squash_grad(y), (np.pi / 2) * s * (1.0 - s))
