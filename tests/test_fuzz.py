"""Fuzz tests: configs drawn from ``cli.CONFIG_SCHEMA``, and mutated files.

Every input path ends in a clean result or a typed error (``ConfigError``,
``ValueError``, ``IdxFormatError``); through ``cli.main`` a failure is one
``error:`` line.  Examples are derandomized with a fixed count, so every run
checks the same inputs.
"""
import contextlib
import copy
import io
import shutil
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evifed import cli, data, model, train
from evifed.cli import ConfigError
from evifed.model import PartyModel
from oracle import load_tabular_csv_dictreader


def fuzz(examples):
    return settings(max_examples=examples, derandomize=True, deadline=None,
                    database=None, suppress_health_check=[HealthCheck.too_slow])


DELETE = object()  # a mutation that removes the key
# The values a typo most often gives; every field is tried with each.
TYPO_VALUES = [DELETE, None, True, -1, 2.5, "10", []]
# Any value a YAML config could hold.
YAML_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text("ab01._/ ", max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("ab01", max_size=2), inner, max_size=3),
    max_leaves=5)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Data files, a model dump and a valid base config per dataset kind."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(40, 6))
    lines = ["f0,f1,f2,f3,f4,f5,target"] + [
        ",".join([repr(float(v)) for v in row] + [str(int(row[0] > 0))])
        for row in feats]
    (root / "d.csv").write_text("\n".join(lines) + "\n")
    idx_files = {}
    for split, n in (("train", 6), ("test", 4)):
        idx_files[f"{split}_images"] = root / f"{split}-img.idx"
        idx_files[f"{split}_labels"] = root / f"{split}-lab.idx"
        data.write_idx_images(idx_files[f"{split}_images"], idx_files[f"{split}_labels"],
                              rng.uniform(0, 1, size=(n, 28, 28)), [3, 6] * (n // 2))
    dumps = {}
    # "wide" is csv with 12-qubit parties: with its 2 classes, the joint
    # register would hold 26 qubits, past qsim.MAX_QUBITS.
    for kind, parties, dims in (("csv", 2, ([3], [2])),
                                ("idx", 4, ([2, 7, 7, 2], [1, 2, 2, 1])),
                                ("wide", 2, ([3], [12]))):
        dumps[kind] = root / f"{kind}-model.txt"
        cli.save_party_models(dumps[kind], [PartyModel.random_init(*dims, 2, 2, 2, rng)
                                            for _ in range(parties)])
    bases = {
        "csv": {"dataset": {"kind": "csv", "path": str(root / "d.csv"),
                            "feature_columns": [f"f{i}" for i in range(6)],
                            "label_column": "target"},
                "parties": {"input_dims": [3], "output_dims": [2]}},
        "idx": {"dataset": {"kind": "idx", "classes": [3, 6],
                            **{key: str(path) for key, path in idx_files.items()}},
                "parties": {"input_dims": [2, 7, 7, 2], "output_dims": [1, 2, 2, 1]}},
    }
    bases["wide"] = copy.deepcopy(bases["csv"])
    bases["wide"]["parties"]["output_dims"] = [12]
    return root, bases, dumps


def fields(kind):
    """(section, key) of every schema key a ``kind`` config can hold."""
    return [(section, key)
            for section in ("config", "parties", "dataset", f"dataset.{kind}", "train")
            for key in cli.CONFIG_SCHEMA[section]]


def holder(raw, section):
    """The mapping in ``raw`` that holds ``section``'s keys."""
    return raw if section == "config" else raw.setdefault(section.split(".")[0], {})


def write_config(root, raw):
    config = root / "fuzz.yaml"
    config.write_text(yaml.safe_dump(raw))
    return config


def inspect_one_line(config, dump):
    """Run ``evifed inspect`` on ``config``; return its exit status and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = cli.main(["inspect", "--config", str(config), "--model", str(dump),
                           "--sample", "0"])
    err = err.getvalue()
    assert status == 0 and err == "" or (
        status == 1 and err.startswith("error: ") and err.count("\n") == 1), err
    return status, err


# Values besides its default that an optional key takes in a valid config.
# The topology keys keep the dump's values; ``classes`` is always given, as
# the fixture's images hold two of the ten default digits.
ALTERNATIVES = {
    "model_kind": st.sampled_from(cli.MODEL_KINDS),
    "out_dir": st.text("ab", min_size=1, max_size=3),
    "classes": st.permutations([3, 6]),
    "max_train_samples": st.integers(1, 2**40),
    "max_test_samples": st.integers(1, 2**40),
    "balance": st.booleans(),
    "test_fraction": st.floats(0.2, 0.8),
    "learning_rate": st.floats(1e-4, 1.0),
    "batch_size": st.integers(1, 512),
    "epochs": st.integers(1, 50),
    "seed": st.integers(0, 2**32 - 1),
}


def as_yaml(value):
    return list(value) if isinstance(value, tuple) else value


def valid_values(kind):
    """Per optional key: left out (DELETE), its default, or an alternative."""
    out = {}
    for section, key in fields(kind):
        default = cli.CONFIG_SCHEMA[section][key][0]
        if default is cli.REQUIRED or key == "train":
            continue
        choices = [] if key == "classes" else [st.just(DELETE)]
        if key != "classes":
            choices.append(st.just(as_yaml(default)))
        if key in ALTERNATIVES:
            choices.append(ALTERNATIVES[key])
        out[(section, key)] = st.one_of(choices)
    return st.fixed_dictionaries(out)


@pytest.mark.parametrize("kind", ["csv", "idx"])
def test_valid_configs_fill_every_default_and_run(inputs, kind):
    root, bases, dumps = inputs

    # A csv config also takes the wide topology, whose inspect skips the
    # joint column and still exits 0.
    @fuzz(15)
    @given(valid_values(kind), st.sampled_from([kind, "wide"] if kind == "csv"
                                               else [kind]))
    def check(values, topology):
        raw = copy.deepcopy(bases[topology])
        for (section, key), value in values.items():
            if value is not DELETE:
                holder(raw, section)[key] = value
        config = write_config(root, raw)
        cfg = cli.load_config(config)
        loaded = {"config": vars(cfg), "parties": cfg.parties, "dataset": cfg.dataset,
                  f"dataset.{kind}": cfg.dataset, "train": vars(cfg.train)}
        for (section, key), value in values.items():
            want = cli.CONFIG_SCHEMA[section][key][0] if value is DELETE else value
            assert as_yaml(loaded[section][key]) == as_yaml(want), (section, key)
        assert inspect_one_line(config, dumps[topology]) == (0, "")

    check()


@pytest.mark.parametrize("kind", ["csv", "idx"])
def test_one_mutated_field_is_one_error_line_or_a_run(inputs, kind):
    root, bases, dumps = inputs

    def check(field, value):
        section, key = field
        raw = copy.deepcopy(bases[kind])
        if value is DELETE:
            holder(raw, section).pop(key, None)
        else:
            holder(raw, section)[key] = value
        config = write_config(root, raw)
        try:
            cli.load_config(config)
        except ConfigError as exc:
            # The base is valid, so a bad train value is the train key's error.
            prefix = f"config.train.{key}: " if section == "train" else "config."
            assert str(exc).startswith(prefix), exc
        inspect_one_line(config, dumps[kind])

    for field in fields(kind):
        for value in TYPO_VALUES:
            check(field, value)
    fuzz(40)(given(st.sampled_from(fields(kind)), YAML_VALUES)(check))()


def test_training_at_any_learning_rate_writes_what_loads_or_is_one_error_line(
        inputs):
    # classical_fuse at 1e200 and above warned "overflow encountered in
    # matmul" and then "invalid value encountered in subtract" before its
    # error line, and a refused run left an empty output directory.  A
    # probability that underflowed to 0 read as "mean loss inf", though the
    # logits were finite.
    root, bases, _ = inputs
    out = root / "lr-run"

    @fuzz(80)
    @given(st.sampled_from(cli.MODEL_KINDS),
           st.floats(-3, 300).map(lambda e: 10.0 ** e), st.integers(1, 2))
    def check(kind, rate, epochs):
        raw = copy.deepcopy(bases["csv"])
        raw.update(model_kind=kind, train={"learning_rate": rate, "epochs": epochs})
        config = write_config(root, raw)
        shutil.rmtree(out, ignore_errors=True)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                status = cli.main(["train", "--config", str(config),
                                   "--out", str(out)])
            err = err.getvalue()
            if status != 0:
                assert status == 1 and err.startswith("error: ") \
                    and err.count("\n") == 1, err
                assert "mean loss inf" not in err
                assert not out.exists()
            else:
                assert err == ""
                assert len(train.TrainTrace.load(out / "trace.csv").records) == epochs
                if kind == "eviqvfl":
                    dump = out / "model.txt"
                    cli.check_dump_topology(dump, cli.load_party_models(dump),
                                            cli.load_config(config).parties)
                    assert inspect_one_line(config, dump) == (0, "")
        assert [str(w.message) for w in caught] == []

    check()


@st.composite
def mutated(draw, blob: bytes, head: int):
    """``blob`` with one byte run overwritten, inserted, deleted or cut off;
    half the edits land in its first ``head`` bytes."""
    at = draw(st.integers(0, head) | st.integers(0, len(blob)))
    chunk = draw(st.binary(min_size=1, max_size=8))
    edit = draw(st.sampled_from(["overwrite", "insert", "delete", "truncate"]))
    if edit == "overwrite":
        return blob[:at] + chunk + blob[at + len(chunk):]
    if edit == "insert":
        return blob[:at] + chunk + blob[at:]
    if edit == "delete":
        return blob[:at] + blob[at + len(chunk):]
    return blob[:at]


def test_mutated_idx_files_load_or_raise_a_typed_error(tmp_path):
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    data.write_idx_images(img, lab, np.zeros((2, 28, 28)), [3, 6])
    images, labels = img.read_bytes(), lab.read_bytes()

    @fuzz(120)
    @given(st.booleans(), st.data())
    def check(in_images, drawn):
        target, blob, head = (img, images, 16) if in_images else (lab, labels, 8)
        target.write_bytes(drawn.draw(mutated(blob, head)))
        try:
            data.load_idx_images(img, lab)
        except ValueError as exc:  # IdxFormatError is one
            assert str(exc).startswith((f"{img}:", f"{lab}:")), exc
        finally:
            img.write_bytes(images)
            lab.write_bytes(labels)

    check()


def test_mutated_csv_loads_or_raises_a_typed_error(tmp_path):
    path = tmp_path / "d.csv"
    blob = b"a,b,target\n0.5,1e3,1\n-2,7,0\n3,4,1\n"

    @fuzz(120)
    @given(mutated(blob, len(blob)))
    def check(mutant):
        path.write_bytes(mutant)
        try:
            data.load_tabular_csv(path, ["a", "b"], "target")
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:"), exc

    check()


def test_mutated_csv_parses_as_the_dictreader_oracle(tmp_path):
    # A duplicated header name, a blank line and a row with an extra cell.
    path = tmp_path / "d.csv"
    blob = b"a,b,target,a\n0.5,1e3,1,2\n\n-2,7,0,8,9\n3,4,1,-1\n"

    def outcome(load):
        try:
            return load(path, ["a", "b"], "target")
        except ValueError as exc:
            return str(exc)

    @fuzz(150)
    @given(mutated(blob, len(blob)))
    def check(mutant):
        path.write_bytes(mutant)
        got = outcome(data.load_tabular_csv)
        want = outcome(load_tabular_csv_dictreader)
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str), got
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)

    check()


def test_mutated_model_dump_loads_or_is_one_error_line(inputs):
    root, bases, dumps = inputs
    blob = dumps["csv"].read_bytes()
    dump = root / "mutated-model.txt"

    @fuzz(70)
    @given(mutated(blob, 80))
    def check(mutant):
        dump.write_bytes(mutant)
        try:
            models = cli.load_party_models(dump)
        except ValueError as exc:
            assert str(exc).startswith(f"{dump}:"), exc
        else:  # a dump that loads also runs
            for m in models:
                model.party_forward(m, np.zeros(m.ttn.in_size))
        inspect_one_line(write_config(root, bases["csv"]), dump)

    check()


def test_mutated_trace_merges_or_is_one_error_line(tmp_path):
    trace = tmp_path / "trace.csv"
    train.TrainTrace([train.EpochRecord(e, 0.7 - 0.1 * e, 0.5, 0.6)
                      for e in range(3)]).export(trace)
    blob = trace.read_bytes()
    out_file = tmp_path / "curves.csv"

    @fuzz(100)
    @given(mutated(blob, len(train.TRACE_HEADER) + 1))
    def check(mutant):
        trace.write_bytes(mutant)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            status = cli.main(["export-curves", str(trace),
                               "--out-file", str(out_file)])
        err = err.getvalue()
        assert status == 0 and err == "" or (
            status == 1 and err.startswith(f"error: {trace}:")
            and err.count("\n") == 1), err

    check()
