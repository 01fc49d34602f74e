"""Party pipeline and evidential fusion: both evaluation modes, predictions."""
import numpy as np
import pytest

from evifed import evidence, model, qsim, train
from evifed.evidence import MassFunction
from evifed.model import PartyModel, Prediction
from evifed.qsim import Gate, Statevector
from evifed.ttn import TTLayerParams
from gate_oracle import mcx_by_index_sets, party_circuit_state
from oracle import one_block_marginals


def random_state(n, rng):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return Statevector(n, amps / np.linalg.norm(amps))


def make_party(rng, input_dims=(2, 3), output_dims=(3, 1), blocks=2,
               num_classes=2):
    return PartyModel.random_init(input_dims, output_dims, 2, blocks,
                                  num_classes, rng)


# --- PartyModel invariants -------------------------------------------------

def test_party_needs_at_least_class_count_qubits():
    rng = np.random.default_rng(0)
    ttn = TTLayerParams.random_init([2, 3], [1, 2], 2, rng)
    with pytest.raises(ValueError):
        PartyModel(ttn, np.zeros((1, 2, 3)), 3)


def test_vqc_angle_shape_enforced():
    rng = np.random.default_rng(0)
    ttn = TTLayerParams.random_init([2, 3], [3, 1], 2, rng)
    with pytest.raises(ValueError):
        PartyModel(ttn, np.zeros((2, 2, 3)), 2)


@pytest.mark.parametrize("angles,num_classes,message", [
    (np.zeros((0, 3, 3)), 2, r"vqc_angles has shape \(0, 3, 3\), expected "
                             r"\(blocks >= 1, 3, 3\)"),
    (np.zeros((3, 3)), 2, r"vqc_angles has shape \(3, 3\)"),
    (np.zeros((1, 3, 3)), 0, r"num_classes 0 must lie in \[2, 3\]$"),
    (np.zeros((1, 3, 3)), 4, r"num_classes 4 must lie in \[2, 3\]$"),
], ids=["no_block", "two_axes", "no_class", "more_classes_than_qubits"])
def test_party_that_cannot_run_is_refused(angles, num_classes, message):
    ttn = TTLayerParams.random_init([2, 3], [3, 1], 2, np.random.default_rng(0))
    with pytest.raises(ValueError, match=message):
        PartyModel(ttn, angles, num_classes)


def test_qubit_and_block_counts_are_read_off_the_arrays():
    m = PartyModel.random_init([2, 3], [3, 1], 2, 4, 2, np.random.default_rng(0))
    assert (m.n_qubits, m.blocks, m.vqc_angles.shape) == (3, 4, (4, 3, 3))


def test_party_param_count_mnist_configuration():
    rng = np.random.default_rng(0)
    m = PartyModel.random_init([2, 7, 7, 2], [1, 2, 2, 1], 2, 2, 2, rng)
    assert m.param_count() == 144


# --- party forward ---------------------------------------------------------

def test_zero_angles_and_quarter_pi_features_give_cnot_ring_of_plus():
    # x_tilde = pi/4 everywhere encodes (|0>+|1>)/sqrt(2) per qubit; zero VQC
    # rotations leave only the CNOT ring.
    rng = np.random.default_rng(1)
    m = make_party(rng, blocks=1)
    m.vqc_angles[...] = 0.0
    n = m.n_qubits
    enc = np.full(n, 2 * (np.pi / 4))
    state = Statevector(n, model.circuit_rows(enc[None, :], m.vqc_angles[None])[0])
    expect = qsim.new_zero_state(n)
    for q in range(n):
        qsim.apply_gate(expect, Gate("H", [q]))
    for q in range(n):
        qsim.apply_gate(expect, Gate("CNOT", [(q + 1) % n], controls=[q]))
    assert np.allclose(state.amplitudes, expect.amplitudes, atol=1e-12)


def test_zero_features_zero_angles_leave_vacuum():
    rng = np.random.default_rng(2)
    m = make_party(rng, blocks=1)
    m.vqc_angles[...] = 0.0
    state = Statevector(m.n_qubits, model.circuit_rows(
        np.zeros((1, m.n_qubits)), m.vqc_angles[None])[0])
    assert np.allclose(state.amplitudes[0], 1.0)


def test_party_forward_output_is_normalized():
    rng = np.random.default_rng(3)
    m = make_party(rng)
    state, cache = model.party_forward(m, rng.uniform(0, 1, size=m.ttn.in_size))
    assert state.norm() == pytest.approx(1.0, abs=1e-10)
    assert set(cache) >= {"x", "pre_activation", "x_tilde"}


@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize("output_dims", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_party_forward_matches_gate_by_gate_circuit(output_dims, blocks):
    # n = 2, 3, 4 and 6 qubits; the rows driver against one gate at a time.
    rng = np.random.default_rng(13)
    m = PartyModel.random_init((2, 3), output_dims, 2, blocks, 2, rng,
                               angle_scale=np.pi)
    state, cache = model.party_forward(m, rng.uniform(0, 1, size=m.ttn.in_size))
    expect = party_circuit_state(2.0 * cache["x_tilde"], m.vqc_angles)
    assert state.num_qubits == m.n_qubits
    assert np.allclose(state.amplitudes, expect.amplitudes, rtol=0, atol=1e-12)


def test_party_forward_rejects_wrong_feature_length():
    rng = np.random.default_rng(4)
    m = make_party(rng)
    with pytest.raises(ValueError):
        model.party_forward(m, np.zeros(m.ttn.in_size + 1))


# --- marginals -------------------------------------------------------------

def test_marginals_of_all_ones_state():
    state = qsim.new_zero_state(3)
    for q in range(3):
        qsim.apply_gate(state, Gate("X", [q]))
    assert np.allclose(model.party_marginals(state, 2), [1.0, 1.0])


def test_marginals_of_product_state_are_sin_squared():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, np.pi / 2, size=3)
    state = qsim.new_zero_state(3)
    for q in range(3):
        qsim.apply_gate(state, Gate("RY", [q], angle=float(2 * x[q])))
    assert np.allclose(model.party_marginals(state, 3), np.sin(x) ** 2)


def test_marginals_match_decoded_distribution_plausibilities():
    rng = np.random.default_rng(6)
    state = random_state(3, rng)
    marg = model.party_marginals(state, 2)
    dist = qsim.marginal_probabilities(state, range(2))
    decoded = evidence.decode_distribution(dist)
    assert np.allclose(marg, evidence.singleton_plausibilities(decoded))


# --- fusion ----------------------------------------------------------------

def test_single_party_factorized_fusion_is_identity():
    marg = np.array([0.3, 0.8])
    assert np.allclose(model.fuse_factorized([marg]), marg)


def test_vacuous_parties_fuse_to_all_ones():
    assert np.allclose(model.fuse_factorized([np.ones(3)] * 4), 1.0)


def test_joint_circuit_with_all_controls_set():
    ones = qsim.new_zero_state(2)
    for q in range(2):
        qsim.apply_gate(ones, Gate("X", [q]))
    plaus = model.fuse_joint_circuit([ones.copy(), ones.copy()], 2)
    assert np.allclose(plaus, [1.0, 1.0])
    dist = model.result_register_distribution([ones.copy(), ones.copy()], 2)
    assert dist[0b11] == pytest.approx(1.0)


def test_joint_circuit_with_one_party_grounded():
    rng = np.random.default_rng(7)
    plaus = model.fuse_joint_circuit([random_state(2, rng),
                                      qsim.new_zero_state(2)], 2)
    assert np.allclose(plaus, [0.0, 0.0], atol=1e-12)


def test_fusion_modes_agree_on_random_parties():
    rng = np.random.default_rng(8)
    for _ in range(30):
        k = int(rng.integers(1, 5))
        num_classes = int(rng.integers(2, 4))
        states = [random_state(int(rng.integers(num_classes, 5)), rng)
                  for _ in range(k)]
        joint = model.fuse_joint_circuit(states, num_classes)
        fact = model.fuse_factorized(
            [model.party_marginals(s, num_classes) for s in states])
        assert np.max(np.abs(joint - fact)) < 1e-10


@pytest.mark.parametrize("widths", [[2, 3], [4, 2, 3], [3, 2, 2, 4]])
def test_joint_state_equals_left_folded_kron_oracle(widths):
    rng = np.random.default_rng(len(widths))
    states = [random_state(n, rng) for n in widths]
    joint, result_qubits = model.fuse_joint_state(states, 2)
    amps = np.eye(4)[0]  # |00>, the result register
    for s in states:
        amps = np.kron(amps, s.amplitudes)
    offsets = np.cumsum([2] + widths[:-1])
    for c in result_qubits:
        amps = mcx_by_index_sets(amps, [int(off) + c for off in offsets], c)
    assert joint.num_qubits == 2 + sum(widths)
    assert np.max(np.abs(joint.amplitudes - amps)) < 1e-15


@pytest.mark.parametrize("k", [1, 2, 4])
def test_joint_fusion_leaves_party_states_unchanged(k):
    rng = np.random.default_rng(10)
    states = [random_state(int(rng.integers(2, 5)), rng) for _ in range(k)]
    before = [s.amplitudes.copy() for s in states]
    for fuse in (model.fuse_joint_circuit, model.result_register_distribution):
        fuse(states, 2)
        for s, amps in zip(states, before):
            assert np.array_equal(s.amplitudes, amps)


def test_result_register_decodes_to_classical_combination():
    rng = np.random.default_rng(9)
    bbas = [MassFunction(2, rng.dirichlet(np.ones(4))) for _ in range(3)]
    states = [evidence.encode_bba(b, rng.uniform(0, 2 * np.pi, 4)) for b in bbas]
    dist = model.result_register_distribution(states, 2)
    measured = evidence.decode_distribution(dist)
    combined = evidence.ccr_combine(bbas)
    assert np.max(np.abs(measured.masses - combined.masses)) < 1e-10


# --- prediction ------------------------------------------------------------

def test_predict_softmax_of_definite_plausibilities():
    pred = model.predict(np.array([1.0, 0.0]))
    e = np.e
    assert np.allclose(pred.probabilities, [e / (e + 1), 1 / (e + 1)])
    assert pred.predicted_class == 0


def test_uniform_plausibilities_give_uniform_probabilities():
    pred = model.predict(np.full(4, 0.6))
    assert np.allclose(pred.probabilities, 0.25)
    assert pred.predicted_class == 0  # tie broken toward lowest index


def test_prediction_of_a_batch_keeps_one_row_per_sample():
    plaus = np.array([[0.9, 0.2], [0.1, 0.7], [0.5, 0.5]])
    pred = model.predict(plaus)
    for row, p in zip(plaus, pred.probabilities):
        assert np.array_equal(p, model.predict(row).probabilities)
    assert pred.predicted_class.tolist() == [0, 1, 0]
    assert isinstance(model.predict(plaus[1]).predicted_class, int)


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(10)
    pred = model.predict(rng.uniform(0, 1, size=4))
    assert pred.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_predict_rejects_out_of_range_plausibilities():
    with pytest.raises(ValueError):
        model.predict(np.array([1.5, 0.0]))


def test_argmax_invariant_under_constant_shift():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = rng.uniform(0, 0.5, size=3)
        shifted = model.predict(p + 0.4)
        assert model.predict(p).predicted_class == shifted.predicted_class


# --- loss floor ------------------------------------------------------------

def test_loss_lower_bound_two_classes():
    assert model.loss_lower_bound(2) == pytest.approx(np.log(1 + np.e) - 1)
    assert model.loss_lower_bound(2) == pytest.approx(0.31326, abs=1e-5)


def test_loss_lower_bound_four_classes():
    assert model.loss_lower_bound(4) == pytest.approx(np.log(3 + np.e) - 1)
    assert model.loss_lower_bound(4) == pytest.approx(0.74366, abs=1e-5)


# --- batched evaluator -----------------------------------------------------

@pytest.mark.parametrize("batch", [1, 7, "past_chunk"])
@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_batched_marginals_match_per_sample_circuits(n, blocks, batch):
    # At n = 2 the ring 0->1->0 composes two CNOTs on the same pair.  The
    # "past_chunk" batch holds more rows than one chunk of CHUNK_AMPLITUDES.
    if batch == "past_chunk":
        batch = (model.CHUNK_AMPLITUDES >> n) + 3
    rng = np.random.default_rng(12)
    enc = rng.uniform(0, np.pi, size=(batch, n))
    vqc = rng.uniform(-np.pi, np.pi, size=(batch, blocks, n, 3))
    got = model.batched_marginals(enc, vqc, 2)[0]
    for b in range(batch):
        state = party_circuit_state(enc[b], vqc[b])
        assert np.allclose(got[b], model.party_marginals(state, 2), atol=1e-12)


@pytest.mark.parametrize("batch", [1, 7, "past_chunk"])
@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_grouped_settings_equal_separate_calls_bit_for_bit(n, blocks, batch):
    # K settings, each on its own run of rows, as forward_pass groups parties;
    # the grouped adjoint, as party_gradients runs it, equals one per setting.
    if batch == "past_chunk":
        batch = (model.CHUNK_AMPLITUDES >> n) + 3
    rng = np.random.default_rng(13)
    enc = rng.uniform(0, np.pi, size=(3, batch, n))
    vqc = rng.uniform(-np.pi, np.pi, size=(3, blocks, n, 3))
    dL_dmarg = rng.normal(size=(3, batch, 2))
    marg, rows = model.batched_marginals(enc.reshape(-1, n), vqc, 2)
    d_enc, d_vqc = model.party_angle_gradients(rows, vqc, dL_dmarg.reshape(-1, 2))
    for k in range(3):
        mine = slice(k * batch, (k + 1) * batch)
        one_marg, one_rows = model.batched_marginals(enc[k], vqc[k:k + 1], 2)
        assert np.array_equal(marg[mine], one_marg)
        assert np.array_equal(rows[mine], one_rows)
        one_enc, one_vqc = model.party_angle_gradients(one_rows, vqc[k:k + 1],
                                                       dL_dmarg[k])
        for got, want in ((d_enc[mine], one_enc), (d_vqc[k], one_vqc[0])):
            if batch > 1:
                assert np.array_equal(got, want)
            else:
                # A lone row is contiguous, so einsum sums its cross matrix
                # in another order than it does a column of grouped rows.
                assert np.max(np.abs(got - want)) < 1e-15


@pytest.mark.parametrize("settings,run", [(1, 600), (3, 300), (5, 100), (600, 1)])
def test_kernel_passes_hold_whole_runs_or_part_of_one_within_a_chunk(
        monkeypatch, settings, run):
    # One qubit past a whole group: each block is a full group's operator
    # and a one-qubit one.
    n, passes = model.GROUP_QUBITS + 1, []
    groups = [(q, 1 << min(model.GROUP_QUBITS, n - q))
              for q in range(0, n, model.GROUP_QUBITS)]
    real = qsim.apply_unitary_rows

    def recording(amps, qubit, u):
        passes.append((len(amps), len(u), (qubit, u.shape[-1])))
        real(amps, qubit, u)

    monkeypatch.setattr(qsim, "apply_unitary_rows", recording)
    rng = np.random.default_rng(15)
    vqc = rng.uniform(-np.pi, np.pi, size=(settings, 2, n, 3))
    amps = model.circuit_rows(rng.uniform(0, np.pi, size=(settings * run, n)), vqc)
    forward, passes[:] = passes[:], []
    model.party_angle_gradients(amps, vqc, rng.normal(size=(settings * run, 2)))
    # Block 1 runs forward once as one pass per group, and the reverse sweep
    # undoes each group on phi and mu.
    for sweep, per_row in ((forward, len(groups)), (passes, 2 * len(groups))):
        assert sum(rows for rows, _, _ in sweep) == per_row * settings * run
        assert {group for _, _, group in sweep} == set(groups)
        for rows, held, _ in sweep:
            assert rows << n <= model.CHUNK_AMPLITUDES
            # Several settings hold whole runs; one holds its run or part of it.
            assert (rows == held * run) if held > 1 else (rows <= run)


def test_reverse_sweep_rebuilds_its_unitaries_from_the_angles():
    # The adjoint takes only rows and angles: emptying the unitary memo
    # between the forward and the reverse sweep must change no bit.
    n = 4
    run = (model.CHUNK_AMPLITUDES >> n) + 3  # each run spans two chunks
    rng = np.random.default_rng(18)
    vqc = rng.uniform(-np.pi, np.pi, size=(3, 2, n, 3))
    dL_dmarg = rng.normal(size=(3 * run, 2))
    _, rows = model.batched_marginals(rng.uniform(0, np.pi, size=(3 * run, n)),
                                      vqc, 2)
    cached = model.party_angle_gradients(rows, vqc, dL_dmarg)
    model._block_unitaries.cache_clear()
    rebuilt = model.party_angle_gradients(rows, vqc, dL_dmarg)
    for got, want in zip(rebuilt, cached, strict=True):
        assert np.array_equal(got, want)


def test_rows_that_do_not_split_into_settings_are_rejected():
    rng = np.random.default_rng(14)
    with pytest.raises(ValueError, match="runs"):
        model.batched_marginals(rng.uniform(0, np.pi, size=(5, 3)),
                                rng.uniform(-np.pi, np.pi, size=(2, 2, 3, 3)), 2)


def test_block_unitaries_follow_in_place_angle_writes():
    # Blocks >= 1 are cached on the angles' bytes; Adam writes them in place.
    rng = np.random.default_rng(16)
    vqc = rng.uniform(-np.pi, np.pi, size=(2, 3, 4, 3))
    before = model.block_unitaries(vqc)
    vqc[1, 2, 3, 0] += 1e-5
    after = model.block_unitaries(vqc)
    assert np.array_equal(after[1], before[1])
    assert not np.array_equal(after[2], before[2])
    model._block_unitaries.cache_clear()
    for cached, fresh in zip(after, model.block_unitaries(vqc)):
        assert np.array_equal(cached, fresh)


def test_cached_block_unitaries_are_read_only():
    rng = np.random.default_rng(17)
    blocks = model.block_unitaries(rng.uniform(-np.pi, np.pi, size=(1, 2, 3, 3)))
    for block in blocks:
        with pytest.raises(ValueError):
            block[0, 0, 0, 0] = 0.0


@pytest.mark.parametrize("shared", [False, True], ids=["per_row", "shared"])
@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_circuit_rows_match_gate_oracle(n, blocks, batch, shared):
    # Block 0 runs as a product state from per-row or shared VQC angles.
    rng = np.random.default_rng(100 * n + 10 * blocks + batch)
    enc = rng.uniform(-np.pi, np.pi, size=(batch, n))
    vqc = rng.uniform(-np.pi, np.pi,
                      size=(blocks, n, 3) if shared else (batch, blocks, n, 3))
    rows = model.circuit_rows(enc, vqc[None] if shared else vqc)
    for b in range(batch):
        want = party_circuit_state(enc[b], vqc if shared else vqc[b])
        assert np.max(np.abs(rows[b] - want.amplitudes)) < 1e-12


@pytest.mark.parametrize("run", [1, 2], ids=["one_row", "two_rows"])
@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_few_rows_per_setting_match_gate_oracle(n, blocks, run):
    # A one-sample prediction runs one row per party setting.
    rng = np.random.default_rng(300 + 10 * n + 2 * blocks + run)
    for settings in range(1, 5):
        enc = rng.uniform(-np.pi, np.pi, size=(settings * run, n))
        vqc = rng.uniform(-np.pi, np.pi, size=(settings, blocks, n, 3))
        rows = model.circuit_rows(enc, vqc)
        assert rows.shape == (settings * run, 1 << n)
        for b in range(len(enc)):
            want = party_circuit_state(enc[b], vqc[b // run])
            assert np.max(np.abs(rows[b] - want.amplitudes)) < 1e-12


@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize("n", [model.GROUP_QUBITS - 1, model.GROUP_QUBITS,
                               model.GROUP_QUBITS + 1, 2 * model.GROUP_QUBITS + 1])
def test_grouped_circuits_match_gate_oracle_and_finite_differences(n, blocks):
    # Qubit counts just under, at and past one group, and past two; each of
    # the two settings' runs spans two chunks of chunk_plan.
    rng = np.random.default_rng(200 + 10 * n + blocks)
    settings, run = 2, (model.CHUNK_AMPLITUDES >> n) + 3
    enc = rng.uniform(-np.pi, np.pi, size=(settings * run, n))
    vqc = rng.uniform(-np.pi, np.pi, size=(settings, blocks, n, 3))
    dL = rng.normal(size=(settings * run, 2))
    marg, rows = model.batched_marginals(enc, vqc, 2)
    for b in range(0, len(enc), 7):
        want = party_circuit_state(enc[b], vqc[b // run])
        assert np.max(np.abs(rows[b] - want.amplitudes)) < 1e-12
    d_enc, d_vqc = model.party_angle_gradients(rows, vqc, dL)

    def loss(enc, vqc):
        """Per row, sum_c dL[r, c] * marginal c."""
        return np.sum(dL * model.batched_marginals(enc, vqc, 2)[0], axis=1)

    step = 1e-5
    fd_enc = np.empty_like(d_enc)
    for q in range(n):
        shift = np.zeros(n)
        shift[q] = step
        fd_enc[:, q] = (loss(enc + shift, vqc) - loss(enc - shift, vqc)) / (2 * step)
    fd_vqc = np.empty_like(d_vqc)
    for index in np.ndindex(vqc.shape[1:]):
        shift = np.zeros(vqc.shape[1:])
        shift[index] = step
        per_run = (loss(enc, vqc + shift) - loss(enc, vqc - shift)).reshape(settings, run)
        fd_vqc[(slice(None),) + index] = per_run.sum(axis=1) / (2 * step)
    # The VQC quotients sum hundreds of rows' losses, whose rounding, about
    # 1e-14 over the 2e-5 step, puts up to 7e-10 into the dead RZ angles'
    # zero gradients; hence the 1e-5 floor on the scale.
    for got, fd in ((d_enc, fd_enc), (d_vqc, fd_vqc)):
        scale = np.maximum(np.abs(fd), 1e-5)
        assert np.max(np.abs(got - fd) / scale) < 1e-4


def test_block_operators_are_kronecker_products_of_block_unitaries():
    # Groups of GROUP_QUBITS adjacent qubits from qubit 0, the last one
    # shorter; the group's first qubit is the most significant factor.
    rng = np.random.default_rng(19)
    n = 2 * model.GROUP_QUBITS + 1
    vqc = rng.uniform(-np.pi, np.pi, size=(3, 2, n, 3))
    for ops, unitaries in zip(model.block_operators(vqc), model.block_unitaries(vqc),
                              strict=True):
        starts = range(0, n, model.GROUP_QUBITS)
        assert len(ops) == len(starts)
        for op, first in zip(ops, starts):
            group = unitaries[first:first + model.GROUP_QUBITS]
            for s in range(len(vqc)):
                want = group[0][s]
                for u in group[1:]:
                    want = np.kron(want, u[s])
                assert np.max(np.abs(op[s] - want)) < 1e-15


def test_block_operators_follow_in_place_angle_writes():
    # Cached on the angles' bytes, as the fused unitaries are.
    rng = np.random.default_rng(20)
    vqc = rng.uniform(-np.pi, np.pi, size=(2, 3, model.GROUP_QUBITS + 2, 3))
    before = model.block_operators(vqc)
    vqc[1, 2, -1, 0] += 1e-5
    after = model.block_operators(vqc)
    assert after is not before
    for k in range(2):
        for was, now in zip(before[k], after[k], strict=True):
            assert np.array_equal(was, now)
    assert np.array_equal(after[2][0], before[2][0])
    assert not np.array_equal(after[2][1], before[2][1])
    model._block_operators.cache_clear()
    for cached, fresh in zip(after, model.block_operators(vqc), strict=True):
        for a, b in zip(cached, fresh, strict=True):
            assert np.array_equal(a, b)


def test_cached_block_operators_are_read_only():
    rng = np.random.default_rng(21)
    blocks = model.block_operators(
        rng.uniform(-np.pi, np.pi, size=(1, 2, model.GROUP_QUBITS + 1, 3)))
    for block in blocks:
        for op in block:
            with pytest.raises(ValueError):
                op[0, 0, 0] = 0.0


# --- readout light cone ----------------------------------------------------

@pytest.mark.parametrize("n", range(2, 9))
def test_one_block_marginals_match_closed_form(n):
    rng = np.random.default_rng(60 + n)
    for settings in (1, 2, 3):
        for num_classes in range(2, min(n, 3) + 1):
            enc = rng.uniform(-np.pi, np.pi, size=(5 * settings, n))
            vqc = rng.uniform(-np.pi, np.pi, size=(settings, 1, n, 3))
            marg, _ = model.batched_marginals(enc, vqc, num_classes)
            expected = one_block_marginals(enc, vqc, num_classes)
            assert np.max(np.abs(marg - expected)) < 1e-12


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_last_block_rz_angles_get_no_gradient(blocks):
    # The Z-basis read-out follows the CNOT ring, a basis permutation, so
    # the diagonal RZ gates just before it move no marginal.
    rng = np.random.default_rng(70 + blocks)
    live = 0.0
    for n, settings, num_classes in [(3, 1, 2), (4, 2, 2), (5, 3, 3), (6, 1, 3)]:
        enc = rng.uniform(-np.pi, np.pi, size=(4 * settings, n))
        vqc = rng.uniform(-np.pi, np.pi, size=(settings, blocks, n, 3))
        _, rows = model.batched_marginals(enc, vqc, num_classes)
        dL = rng.normal(size=(len(enc), num_classes))
        _, d_vqc = model.party_angle_gradients(rows, vqc, dL)
        dead = np.zeros(vqc.shape, dtype=bool)
        dead[:, -1, :, 2] = True
        assert np.max(np.abs(d_vqc[dead])) < 1e-15
        live = max(live, np.max(np.abs(d_vqc[~dead])))
    assert live > 0.1
