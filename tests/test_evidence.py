"""Dempster-Shafer oracle tests: plausibility, combination, quantum mapping."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evifed import evidence
from evifed.evidence import InvalidStateError, MassFunction
from evifed.qsim import Statevector
from oracle import ccr_tuple_enumeration


def random_bba(n, rng):
    return MassFunction(n, rng.dirichlet(np.ones(1 << n)))


# --- MassFunction invariants ----------------------------------------------

def test_masses_must_sum_to_one():
    with pytest.raises(ValueError):
        MassFunction(2, [0.5, 0.1, 0.1, 0.1])


def test_negative_mass_rejected():
    with pytest.raises(ValueError):
        MassFunction(1, [1.2, -0.2])


def test_non_finite_masses_rejected():
    # NaN fails every comparison, so the sign and sum checks alone let it in.
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            MassFunction(2, [bad] * 4)


def test_empty_set_mass_is_allowed():
    m = MassFunction.from_dict(1, {0: 0.4, 0b1: 0.6})
    assert m.masses[0] == 0.4


def test_frame_size_cap():
    with pytest.raises(ValueError):
        MassFunction(17, np.zeros(1 << 17))


# --- plausibility ----------------------------------------------------------

def test_vacuous_plausibility_is_one_everywhere():
    m = MassFunction.vacuous(3)
    for subset in range(1, 8):
        assert evidence.plausibility(m, subset) == pytest.approx(1.0)


def test_plausibility_example_two_singletons_and_frame():
    m = MassFunction.from_dict(2, {0b01: 0.3, 0b10: 0.5, 0b11: 0.2})
    assert evidence.plausibility(m, 0b01) == pytest.approx(0.5)


def test_plausibility_of_empty_set_is_zero():
    rng = np.random.default_rng(0)
    assert evidence.plausibility(random_bba(3, rng), 0) == 0.0


def test_plausibility_rejects_out_of_range_mask():
    with pytest.raises(ValueError):
        evidence.plausibility(MassFunction.vacuous(2), 4)


# --- combination -----------------------------------------------------------

def test_vacuous_is_neutral_for_combination():
    rng = np.random.default_rng(1)
    m = random_bba(3, rng)
    combined = evidence.ccr_combine([m, MassFunction.vacuous(3)])
    assert np.allclose(combined.masses, m.masses)


def test_combination_routes_conflict_to_empty_set():
    m1 = MassFunction.from_dict(2, {0b01: 0.6, 0b11: 0.4})  # {a}, {a,b}
    m2 = MassFunction.from_dict(2, {0b10: 1.0})             # {b}
    combined = evidence.ccr_combine([m1, m2])
    assert combined.masses[0] == pytest.approx(0.6)      # {a} n {b} = empty
    assert combined.masses[0b10] == pytest.approx(0.4)   # {a,b} n {b} = {b}


def test_pairwise_fold_matches_tuple_enumeration():
    rng = np.random.default_rng(2)
    ms = [random_bba(3, rng) for _ in range(3)]
    folded = evidence.ccr_combine(ms)
    brute = ccr_tuple_enumeration(ms)
    assert np.max(np.abs(folded.masses - brute.masses)) < 1e-12


def test_combination_rejects_frame_mismatch():
    with pytest.raises(ValueError):
        evidence.ccr_combine([MassFunction.vacuous(2), MassFunction.vacuous(3)])


def test_combination_rejects_empty_list():
    with pytest.raises(ValueError):
        evidence.ccr_combine([])


def test_combined_mass_still_sums_to_one():
    rng = np.random.default_rng(3)
    for _ in range(20):
        ms = [random_bba(2, rng) for _ in range(4)]
        assert evidence.ccr_combine(ms).masses.sum() == pytest.approx(1.0)


# --- commonality -----------------------------------------------------------

def test_commonality_of_empty_set_is_total_mass():
    rng = np.random.default_rng(4)
    assert evidence.commonality(random_bba(3, rng), 0) == pytest.approx(1.0)


def test_commonality_equals_plausibility_on_singletons():
    rng = np.random.default_rng(5)
    m = random_bba(4, rng)
    for c in range(4):
        assert evidence.commonality(m, 1 << c) == \
            pytest.approx(evidence.plausibility(m, 1 << c))


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_commonality_matches_direct_superset_sum(seed, n):
    rng = np.random.default_rng(seed)
    m = random_bba(n, rng)
    subset = int(rng.integers(1 << n))
    direct = sum(m.masses[b] for b in range(1 << n) if (b & subset) == subset)
    assert evidence.commonality(m, subset) == pytest.approx(direct)


# --- quantum mapping -------------------------------------------------------

def test_encode_vacuous_two_elements_lands_on_11():
    state = evidence.encode_bba(MassFunction.vacuous(2))
    assert np.allclose(state.amplitudes, [0, 0, 0, 1])


def test_encode_singleton_omega2_lands_on_01():
    state = evidence.encode_bba(MassFunction.from_dict(2, {0b10: 1.0}))
    assert np.allclose(state.amplitudes, [0, 1, 0, 0])
    # At n = 2 the label table equals a plain swap of the mask bits; at n = 3
    # {w1} must land on 100 and {w2} on 010.
    state = evidence.encode_bba(MassFunction.from_dict(3, {0b001: 0.25, 0b010: 0.75}))
    want = np.zeros(8)
    want[0b100], want[0b010] = np.sqrt(0.25), np.sqrt(0.75)
    assert np.allclose(state.amplitudes, want)


def test_encode_gives_a_slightly_negative_mass_amplitude_zero():
    # MassFunction accepts masses down to -1e-12; their square root is nan.
    state = evidence.encode_bba(MassFunction(2, [-1e-13, 0, 0.5, 0.5 + 1e-13]))
    assert state.amplitudes[0] == 0
    assert np.all(np.isfinite(state.amplitudes))


def test_decode_11_is_vacuous():
    m = evidence.decode_state(Statevector(2, [0, 0, 0, 1]))
    assert np.allclose(m.masses, MassFunction.vacuous(2).masses)


def test_decode_superposition_of_singletons():
    state = Statevector(2, np.array([0, 1, 1, 0]) / np.sqrt(2))
    m = evidence.decode_state(state)
    assert m.masses[0b10] == pytest.approx(0.5)  # element 2
    assert m.masses[0b01] == pytest.approx(0.5)  # element 1


def test_decode_rejects_unnormalized_state():
    with pytest.raises(InvalidStateError):
        evidence.decode_state(Statevector(1, [0.5, 0.5]))


def test_decode_rejects_a_distribution_with_no_mass():
    with pytest.raises(ValueError, match="no mass"):
        evidence.decode_distribution(np.zeros(4))


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_encode_decode_roundtrip_any_phases(seed, n):
    rng = np.random.default_rng(seed)
    m = random_bba(n, rng)
    phases = rng.uniform(0, 2 * np.pi, size=1 << n)
    back = evidence.decode_state(evidence.encode_bba(m, phases))
    assert np.max(np.abs(back.masses - m.masses)) < 1e-12


# --- singleton plausibilities ----------------------------------------------

def test_singleton_plausibilities_vacuous():
    assert np.allclose(evidence.singleton_plausibilities(MassFunction.vacuous(2)),
                       [1.0, 1.0])


def test_singleton_plausibilities_certain_element():
    m = MassFunction.from_dict(2, {0b01: 1.0})
    assert np.allclose(evidence.singleton_plausibilities(m), [1.0, 0.0])


def test_singleton_plausibilities_compose_per_component():
    rng = np.random.default_rng(6)
    m = random_bba(3, rng)
    vec = evidence.singleton_plausibilities(m)
    for c in range(3):
        assert vec[c] == pytest.approx(evidence.plausibility(m, 1 << c))
