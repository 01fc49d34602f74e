import pytest

from evifed import verify

# Every row of ``evifed verify`` in report order, as (name, tolerance).
ROWS = [
    ("gate-then-inverse recovers input", 1e-10),
    ("norm preserved across gate sequences", 1e-10),
    ("MCX applied twice is the identity", 1e-12),
    ("full-basis outcome probabilities sum to 1", 1e-10),
    ("combination commutes and re-brackets", 1e-12),
    ("commonality is multiplicative under combination", 1e-12),
    ("combined singleton plausibility factorizes", 1e-12),
    ("encode/decode roundtrip with random phases", 1e-12),
    ("factorized fusion equals the joint circuit", 1e-10),
    ("result register measures the classical combination", 1e-10),
    ("result-qubit expectation equals classical plausibility", 1e-10),
    ("per-basis phases never move fused plausibilities", 1e-10),
    ("all four correction branches are exact", 1e-10),
    ("entangled-register transfer preserves the state", 1e-10),
    ("measurement branches are uniform (1/4 each)", 0.02),
    ("single-qubit shift gradient matches closed form", 1e-12),
    ("adjoint gradients match parameter shift", 1e-10),
    ("adjoint gradients match finite differences", 1e-4),
    ("last block's RZ angles get zero gradient", 1e-12),
]


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_property_suite_passes(suite):
    for result in verify.run_suite(suite):
        assert result.passed, f"{result.name}: worst {result.worst}"


def test_all_is_every_suite_in_table_order():
    rows = [(name, tolerance) for suite in verify.SUITES.values()
            for name, tolerance, *_ in suite]
    assert rows == ROWS
    assert len({name for name, _ in rows}) == len(rows)
    assert [(r.name, r.tolerance) for r in verify.run_suite("all")] == ROWS


def test_unknown_suite_names_the_choices():
    with pytest.raises(ValueError, match=r"unknown suite 'nope'; choose from "
                       r"\('qsim', 'evidence', 'fusion', 'teleport', "
                       r"'gradients', 'all'\)"):
        verify.run_suite("nope")


def test_a_nan_trial_fails_its_row(monkeypatch):
    # A plain max(0.0, nan) is 0.0, which would pass.
    trials = iter([0.0, float("nan"), 0.0])
    monkeypatch.setitem(verify.SUITES, "qsim",
                        [("nan row", 1.0, 3, 0, lambda rng: next(trials))])
    [result] = verify.run_suite("qsim")
    assert not result.passed
