"""Command-line front end: configs, training runs, model dumps, curves."""
import dataclasses
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from evifed import cli, data, model, train
from evifed.baselines import MLPParty, mlp_width_for_budget
from evifed.cli import ConfigError, load_config, load_party_models, \
    save_party_models, validate_party_topology
from evifed.model import PartyModel
from oracle import idx_pipeline

ROOT = Path(__file__).resolve().parents[1]


def write_yaml(path, text):
    path.write_text(text)
    return str(path)


def make_csv(path, n=80, width=6, seed=0):
    """Small linearly separable tabular file: label = sign of the first column."""
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, width))
    labels = (feats[:, 0] > 0).astype(int)
    feats[:, 1] = labels * 2.0 - 1.0 + 0.1 * feats[:, 1]
    header = ",".join([f"f{i}" for i in range(width)] + ["target"])
    lines = [header] + [
        ",".join([repr(float(v)) for v in row] + [str(lab)])
        for row, lab in zip(feats, labels)
    ]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def csv_config(tmp_path, csv_path, extra="", model_kind="eviqvfl",
               epochs=2, out_name="run"):
    return write_yaml(tmp_path / f"{out_name}.yaml", f"""
dataset:
  kind: csv
  path: {csv_path}
  feature_columns: [f0, f1, f2, f3, f4, f5]
  label_column: target
  test_fraction: 0.25
model_kind: {model_kind}
parties:
  input_dims: [3]
  output_dims: [2]
  rank: 2
  vqc_blocks: 1
train:
  learning_rate: 0.1
  batch_size: 16
  epochs: {epochs}
  seed: 0
out_dir: {tmp_path / out_name}
{extra}""")


# --- config validation -----------------------------------------------------

def test_missing_dataset_section_names_field():
    with pytest.raises(ConfigError, match="config.dataset"):
        cli_load_from_text("model_kind: eviqvfl\nparties: {}\n")


def cli_load_from_text(text, tmp_path=None):
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".yaml", delete=False) as f:
        f.write(text)
        name = f.name
    try:
        return load_config(name)
    finally:
        os.unlink(name)


def test_unknown_model_kind_rejected(tmp_path, ):
    with pytest.raises(ConfigError, match="model_kind"):
        cli_load_from_text("dataset: {kind: csv}\nmodel_kind: qsvm\nparties: {}\n")


def test_missing_csv_file_reported(tmp_path):
    cfg = f"""
dataset: {{kind: csv, path: {tmp_path}/nope.csv}}
parties: {{input_dims: [3], output_dims: [2]}}
"""
    with pytest.raises(ConfigError, match="file not found"):
        cli_load_from_text(cfg)


def test_bad_dataset_kind(tmp_path):
    with pytest.raises(ConfigError, match="dataset.kind"):
        cli_load_from_text(
            "dataset: {kind: parquet}\n"
            "parties: {input_dims: [3], output_dims: [2]}\n")


def test_train_section_errors_carry_field_path(tmp_path):
    csv = make_csv(tmp_path / "d.csv")
    cfg = f"""
dataset:
  kind: csv
  path: {csv}
  feature_columns: [f0]
  label_column: target
parties: {{input_dims: [1], output_dims: [2]}}
train: {{learning_rate: -1.0}}
"""
    with pytest.raises(ConfigError, match="config.train"):
        cli_load_from_text(cfg)


@pytest.mark.parametrize("text,message", [
    ("dataset:\n\tkind: csv\n",
     "while scanning for the next token found character '\\t' that cannot start "
     "any token in \"{path}\", line 2, column 1"),
    ("dataset: *nope\n",
     "found undefined alias 'nope' in \"{path}\", line 1, column 10"),
], ids=["tab", "undefined_alias"])
def test_yaml_error_names_the_offending_token(tmp_path, text, message):
    # The pure-Python parser names the token at fault; libyaml's drops it.
    bad = write_yaml(tmp_path / "bad.yaml", text)
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    assert str(err.value) == f"{bad}: invalid YAML: " + message.format(path=bad)


def test_yaml_syntax_error_is_one_error_line(tmp_path, capsys):
    bad = write_yaml(tmp_path / "bad.yaml", "dataset: [unclosed\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(bad)
    assert run_cli("train", "--config", bad) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: invalid YAML")
    assert err.count("\n") == 1


@pytest.mark.parametrize("section,line", [
    ("config", "test_fracton: 0.5"),
    ("config.dataset", "  test_fracton: 0.5"),
    ("config.parties", "  vqc_block: 2"),
])
def test_unknown_config_key_rejected(tmp_path, section, line):
    csv = make_csv(tmp_path / "d.csv")
    text = Path(csv_config(tmp_path, csv)).read_text()
    anchor = {"config": "out_dir:", "config.dataset": "  test_fraction:",
              "config.parties": "  rank:"}[section]
    config = write_yaml(tmp_path / "typo.yaml",
                        text.replace(anchor, f"{line}\n{anchor}"))
    key = line.split(":")[0].strip()
    with pytest.raises(ConfigError, match=rf"^{section}\.{key}: unknown field$"):
        load_config(config)


@pytest.mark.parametrize("key", ["feature_columns", "label_column"])
def test_missing_csv_dataset_key_rejected(tmp_path, capsys, key):
    csv = make_csv(tmp_path / "d.csv")
    lines = Path(csv_config(tmp_path, csv)).read_text().splitlines()
    config = write_yaml(tmp_path / "short.yaml", "\n".join(
        ln for ln in lines if not ln.startswith(f"  {key}:")))
    with pytest.raises(ConfigError,
                       match=rf"^config\.dataset\.{key}: required field missing$"):
        load_config(config)
    assert run_cli("train", "--config", config) == 1
    assert capsys.readouterr().err == \
        f"error: config.dataset.{key}: required field missing\n"


@pytest.mark.parametrize("after,repeat,key", [
    ("out_dir", "train:\n  epochs: 5", "train"),
    ("  seed", "  epochs: 5", "epochs"),
], ids=["section", "key_in_section"])
def test_yaml_key_repeated_in_one_mapping_is_one_error_line(tmp_path, capsys, after,
                                                           repeat, key):
    # yaml.safe_load keeps the last duplicate: a second train section replaced
    # the first, whose other keys then fell back to their defaults.
    csv = make_csv(tmp_path / "d.csv")
    lines = Path(csv_config(tmp_path, csv)).read_text().splitlines()
    at = [ln.split(":")[0] for ln in lines].index(after) + 1
    lines[at:at] = repeat.splitlines()
    config = write_yaml(tmp_path / "dup.yaml", "\n".join(lines) + "\n")
    column = len(repeat) - len(repeat.lstrip()) + 1
    assert run_cli("train", "--config", config) == 1
    assert capsys.readouterr().err == (
        f"error: {config}: invalid YAML: duplicate key {key!r} in \"{config}\", "
        f"line {at + 1}, column {column}\n")


def test_yaml_merge_key_is_not_a_repeated_key(tmp_path):
    # A key beside a merge overrides the merged value, as YAML defines.
    csv = make_csv(tmp_path / "d.csv")
    text = Path(csv_config(tmp_path, csv)).read_text()
    config = write_yaml(tmp_path / "merge.yaml",
                        with_line(text, "train", "  <<: {epochs: 7, seed: 3}"))
    cfg = load_config(config)
    assert (cfg.train.epochs, cfg.train.seed) == (2, 0)


def test_config_schema_docstring_matches_key_table():
    block = cli.__doc__.split("an optional key shows its default)::\n")[1]
    schema = yaml.safe_load(textwrap.dedent(block))
    table = cli.CONFIG_SCHEMA
    assert set(schema) == set(table["config"])
    assert set(schema["dataset"]) == (set(table["dataset"]) | set(table["dataset.idx"])
                                      | set(table["dataset.csv"]))
    assert set(schema["parties"]) == set(table["parties"])
    assert set(schema["train"]) == {f.name for f in
                                    dataclasses.fields(train.TrainConfig)}
    assert set(schema["train"]) == set(table["train"])
    # Each optional key's documented value is its default (the train
    # section's mapping excepted).
    for section, doc in (("config", schema), ("parties", schema["parties"]),
                         ("dataset.idx", schema["dataset"]),
                         ("dataset.csv", schema["dataset"]), ("train", schema["train"])):
        for key, (default, _, _) in table[section].items():
            if default is not cli.REQUIRED and key != "train":
                default = list(default) if isinstance(default, tuple) else default
                assert doc[key] == default, f"{section}.{key}"


def test_train_schema_rows_are_trainconfig_fields_with_their_defaults():
    # A new TrainConfig field cannot skip the table's checks.
    rows = cli.CONFIG_SCHEMA["train"]
    fields = dataclasses.fields(train.TrainConfig)
    assert list(rows) == [f.name for f in fields]
    for f in fields:
        assert rows[f.name][0] == f.default, f.name


def test_no_schema_row_accepts_every_value():
    for section, rows in cli.CONFIG_SCHEMA.items():
        for key, (_, ok, message) in rows.items():
            assert not ok(None) and message, f"{section}.{key}"


def with_line(text, section, line):
    """Config ``text`` with ``line`` under ``section:`` (at the end for the
    top level, ``config``), replacing the line that set the same key before."""
    key = line.split(":")[0]
    lines = [ln for ln in text.splitlines() if ln.split(":")[0] != key]
    at = len(lines) if section == "config" else lines.index(f"{section}:") + 1
    return "\n".join(lines[:at] + [line] + lines[at:]) + "\n"


WRONG_TYPE_CASES = [
    ("train", "  learning_rate: true",
     "config.train.learning_rate: must be a finite number > 0, got True"),
    ("train", "  epochs: 2.0",
     "config.train.epochs: must be a positive integer, got 2.0"),
    ("parties", "  input_dims: 3", "config.parties.input_dims: must be a "
     "non-empty list of positive integers, got 3"),
    ("parties", "  output_dims: [2.0]", "config.parties.output_dims: must be a "
     "non-empty list of positive integers, got [2.0]"),
    ("parties", "  rank: 2.5", "config.parties.rank: must be a positive integer, got 2.5"),
    ("parties", "  vqc_blocks: true",
     "config.parties.vqc_blocks: must be a positive integer, got True"),
    ("train", "  seed: -1", "config.train.seed: must be an integer >= 0, got -1"),
    ("dataset", "  test_fraction: '0.2'",
     "config.dataset.test_fraction: must be a number in (0, 1), got '0.2'"),
    ("dataset", "  test_fraction: 1.5",
     "config.dataset.test_fraction: must be a number in (0, 1), got 1.5"),
    ("dataset", "  balance: 'no'",
     "config.dataset.balance: must be true or false, got 'no'"),
    ("dataset", "  balance: 1", "config.dataset.balance: must be true or false, got 1"),
    ("dataset", "  feature_columns: f0", "config.dataset.feature_columns: must be a "
     "non-empty list of column names, got 'f0'"),
    ("dataset", "  label_column: 3", "config.dataset.label_column: must be a column "
     "name, got 3"),
    ("config", "out_dir: 5", "config.out_dir: must be a directory path, got 5"),
]


@pytest.mark.parametrize("section,line,message", WRONG_TYPE_CASES,
                         ids=[line.split(":")[0].strip() for _, line, _ in WRONG_TYPE_CASES])
def test_train_rejects_config_value_of_wrong_type(tmp_path, capsys, section,
                                                  line, message):
    csv = make_csv(tmp_path / "d.csv")
    text = Path(csv_config(tmp_path, csv)).read_text()
    config = write_yaml(tmp_path / "typed.yaml", with_line(text, section, line))
    assert run_cli("train", "--config", config) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("section,key,value", [
    ("train", "grad_mode", "parameter_shift"),
    ("train", "grad_mode", "finite_difference"),
    ("train", "eval_mode", "joint"),
    ("dataset", "label_map", "{'M': 1, 'B': 0}"),
    ("train", "adam_betas", "[0.9, 0.999]"),
    ("train", "adam_epsilon", "1.0e-8"),
    ("dataset", "widths", "[3, 3]"),
    ("parties", "num_classes", "2"),
], ids=["parameter_shift", "finite_difference", "eval_mode", "label_map",
        "adam_betas", "adam_epsilon", "widths", "num_classes"])
def test_removed_grad_mode_key_is_one_error_line(tmp_path, capsys, section, key,
                                                 value):
    # Training always uses adjoint gradients, factorized evaluation and fixed
    # Adam constants, and a label cell is 0 or 1; the old settings are not
    # fields.  Party widths and the class count follow from the data.
    csv = make_csv(tmp_path / "d.csv")
    text = Path(csv_config(tmp_path, csv)).read_text()
    config = write_yaml(tmp_path / "gm.yaml",
                        with_line(text, section, f"  {key}: {value}"))
    assert run_cli("train", "--config", config) == 1
    assert capsys.readouterr().err == \
        f"error: config.{section}.{key}: unknown field\n"


@pytest.mark.parametrize("command", ["train", "inspect"])
def test_negative_seed_flag_is_one_error_line(tmp_path, capsys, command):
    # The flag overrides a validated config, so it is checked on its own.
    csv = make_csv(tmp_path / "d.csv")
    config = csv_config(tmp_path, csv)
    path, _ = _dump_lines(tmp_path)
    argv = ["--config", config, "--seed", "-1"]
    if command == "inspect":
        argv += ["--model", str(path), "--sample", "0"]
    assert run_cli(command, *argv) == 1
    assert capsys.readouterr().err == "error: --seed -1: seed must be >= 0\n"


def test_train_section_must_be_a_mapping(tmp_path, capsys):
    csv = make_csv(tmp_path / "d.csv")
    raw = yaml.safe_load(Path(csv_config(tmp_path, csv)).read_text())
    raw["train"] = ["epochs"]
    config = write_yaml(tmp_path / "tm.yaml", yaml.safe_dump(raw))
    assert run_cli("train", "--config", config) == 1
    assert capsys.readouterr().err == "error: config.train: must be a mapping\n"


@pytest.mark.parametrize("epochs", [0, -3])
def test_train_rejects_fewer_than_one_epoch(tmp_path, capsys, epochs):
    # TrainConfig itself accepts epochs=0 (a run that trains nothing); the
    # command would have no final epoch to report.
    csv = make_csv(tmp_path / "d.csv")
    config = csv_config(tmp_path, csv, epochs=epochs)
    assert run_cli("train", "--config", config) == 1
    assert capsys.readouterr().err == \
        f"error: config.train.epochs: must be a positive integer, got {epochs}\n"


@pytest.mark.parametrize("columns,message", [
    ("[f0, f1, f2, f3, f4, target]", "lists the label_column 'target'"),
    ("[f0, f1, f2, f3, f0, f5]", "'f0' is listed twice"),
], ids=["label_column", "duplicate"])
def test_csv_feature_columns_exclude_the_label_and_repeats(tmp_path, capsys,
                                                           columns, message):
    # Parties hold complementary features, and the label is none of them.
    csv = make_csv(tmp_path / "d.csv")
    text = Path(csv_config(tmp_path, csv)).read_text()
    config = write_yaml(tmp_path / "fc.yaml",
                        with_line(text, "dataset", f"  feature_columns: {columns}"))
    assert run_cli("train", "--config", config) == 1
    assert capsys.readouterr().err == \
        f"error: config.dataset.feature_columns: {message}\n"


SHIPPED_PARTY_COUNTS = {"breast_cancer": 3, "credit_card": 4, "mnist_3v6": 4}


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.yaml")),
                         ids=lambda p: p.stem)
def test_shipped_config_passes_validation(tmp_path, path):
    # The MNIST and credit-card files are absent offline; empty stand-ins
    # let every check that needs no file content run.
    raw = yaml.safe_load(path.read_text())
    table = cli.CONFIG_SCHEMA[f"dataset.{raw['dataset']['kind']}"]
    for key in (k for k, (_, _, message) in table.items()
                if message.startswith("file not found")):
        (tmp_path / key).write_text("")
        raw["dataset"][key] = str(tmp_path / key)
    config = tmp_path / path.name
    config.write_text(yaml.safe_dump(raw))
    cfg = load_config(config)
    assert cfg.model_kind == raw["model_kind"]
    parties = cli.build_party_models(cfg, np.random.default_rng(0))
    assert len(parties) == SHIPPED_PARTY_COUNTS[path.stem]


def test_topology_rejects_too_few_qubits():
    with pytest.raises(ConfigError, match="fewer qubits"):
        validate_party_topology({"input_dims": [4], "output_dims": [2]}, 4)


def test_topology_rejects_factor_count_mismatch(tmp_path, capsys):
    # The TT layer pairs each input factor with one output factor.
    csv = make_csv(tmp_path / "d.csv")
    text = Path(csv_config(tmp_path, csv)).read_text()
    config = write_yaml(tmp_path / "tt.yaml",
                        with_line(text, "parties", "  output_dims: [2, 1]"))
    assert run_cli("train", "--config", config) == 1
    assert capsys.readouterr().err == ("error: config.parties.output_dims: has 2 "
                                       "factors, input_dims has 1\n")


def test_topology_rejects_nonpositive_dims():
    with pytest.raises(ConfigError, match="positive"):
        validate_party_topology({"input_dims": [0, 4], "output_dims": [2]}, 2)


def test_topology_rejects_bad_rank():
    with pytest.raises(ConfigError, match="rank"):
        validate_party_topology({"input_dims": [4], "output_dims": [2], "rank": 0}, 2)


def test_topology_rejects_operator_over_dense_cap(tmp_path, capsys):
    # The layer applies its cores as one dense (out, in) operator.
    csv = make_csv(tmp_path / "d.csv")
    text = with_line(Path(csv_config(tmp_path, csv)).read_text(), "parties",
                     "  input_dims: [1000, 1001]")
    config = write_yaml(tmp_path / "cap.yaml",
                        with_line(text, "parties", "  output_dims: [1, 2]"))
    assert run_cli("train", "--config", config) == 1
    assert capsys.readouterr() == ("", "error: config.parties.input_dims: the TT "
                                       "operator would hold 2 x 1001000 = 2002000 "
                                       "entries, more than ttn.DENSE_CAP=1000000\n")


@pytest.mark.parametrize("line, message", [
    ("  rank: 100000000", "config.parties.rank: a party would hold 1400000000 "
     "TT core entries and 12 VQC angles, more than ttn.DENSE_CAP=1000000 "
     "parameters"),
    ("  vqc_blocks: 100000000", "config.parties.vqc_blocks: a party would hold "
     "28 TT core entries and 1200000000 VQC angles, more than "
     "ttn.DENSE_CAP=1000000 parameters"),
], ids=["rank", "vqc_blocks"])
def test_party_parameter_count_bounded_at_load(tmp_path, line, message):
    # load_config only: building these parties would ask NumPy for ~10 GiB.
    text = (ROOT / "configs" / "breast_cancer.yaml").read_text()
    config = write_yaml(tmp_path / "big.yaml", with_line(text, "parties", line))
    with pytest.raises(ConfigError) as exc:
        load_config(config)
    assert str(exc.value) == message


def test_topology_rejects_register_over_max_qubits(tmp_path, capsys):
    # The TT operator is small (40 x 1), but each circuit row would hold
    # 2^40 amplitudes.
    csv = make_csv(tmp_path / "d.csv")
    text = Path(csv_config(tmp_path, csv)).read_text()
    for section, line in (("dataset", "  feature_columns: [f0, f1]"),
                          ("parties", "  input_dims: [1]"),
                          ("parties", "  output_dims: [40]")):
        text = with_line(text, section, line)
    config = write_yaml(tmp_path / "qubits.yaml", text)
    assert run_cli("train", "--config", config) == 1
    assert capsys.readouterr() == ("", "error: config.parties.output_dims: "
                                       "product 40 qubits exceeds "
                                       "qsim.MAX_QUBITS=24\n")


@pytest.mark.parametrize("kind", cli.MODEL_KINDS)
def test_width_mismatch_caught_at_load(tmp_path, kind):
    csv = make_csv(tmp_path / "d.csv")
    text = Path(csv_config(tmp_path, csv, model_kind=kind)).read_text()
    # 6 feature columns do not split into parties of 4
    config = write_yaml(tmp_path / "w.yaml",
                        with_line(text, "parties", "  input_dims: [4]"))
    with pytest.raises(ConfigError, match="does not divide"):
        load_config(config)


def test_inspect_checks_input_dims_against_party_widths(tmp_path, capsys):
    csv = make_csv(tmp_path / "d.csv")
    text = Path(csv_config(tmp_path, csv)).read_text()
    assert run_cli("train", "--config", write_yaml(tmp_path / "a.yaml", text)) == 0
    capsys.readouterr()
    # The dump's parties take 3 features each; 5 columns do not split so.
    config = write_yaml(tmp_path / "b.yaml", with_line(
        text, "dataset", "  feature_columns: [f0, f1, f2, f3, f4]"))
    assert run_cli("inspect", "--config", config,
                   "--model", str(tmp_path / "run" / "model.txt"),
                   "--sample", "0") == 1
    assert capsys.readouterr() == ("", "error: config.parties.input_dims: product 3 "
                                       "does not divide the 5 feature_columns into "
                                       "parties\n")


# --- model dump roundtrip --------------------------------------------------

def test_model_dump_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(1)
    models = [PartyModel.random_init([2, 5], [2, 2], 2, 1, 2, rng)
              for _ in range(3)]
    path = tmp_path / "model.txt"
    save_party_models(path, models)
    back = load_party_models(path)
    assert len(back) == 3
    for a, b in zip(models, back):
        assert a.ttn.input_dims == b.ttn.input_dims
        assert a.ttn.output_dims == b.ttn.output_dims
        for ca, cb in zip(a.ttn.cores, b.ttn.cores):
            assert np.array_equal(ca, cb)
        assert np.array_equal(a.vqc_angles, b.vqc_angles)


def test_model_dump_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("hello\nworld\n")
    with pytest.raises(ValueError, match="not a model dump"):
        load_party_models(path)


def _dump_lines(tmp_path):
    rng = np.random.default_rng(4)
    models = [PartyModel.random_init([2, 3], [2, 1], 2, 1, 2, rng)
              for _ in range(2)]
    path = tmp_path / "model.txt"
    save_party_models(path, models)
    return path, path.read_text().splitlines()


@pytest.mark.parametrize("keep", ["header", "first_party", "all_but_last"])
def test_model_dump_rejects_truncated_file(tmp_path, keep):
    path, lines = _dump_lines(tmp_path)
    cut = {"header": 1, "first_party": 5, "all_but_last": len(lines) - 1}[keep]
    path.write_text("\n".join(lines[:cut]) + "\n")
    with pytest.raises(ValueError, match=rf"model\.txt:{cut + 1}: file ends early"):
        load_party_models(path)


def test_model_dump_rejects_value_count_shape_mismatch(tmp_path):
    path, lines = _dump_lines(tmp_path)
    assert lines[3].startswith("array party0.core0 shape")
    lines[4] = lines[4] + " 0.5"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"model\.txt:5: 9 values do not fill"):
        load_party_models(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_model_dump_rejects_non_finite_value(tmp_path, value):
    path, lines = _dump_lines(tmp_path)
    fields = lines[4].split()
    fields[1] = value
    lines[4] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"model\.txt:5: non-finite value {value}$"):
        load_party_models(path)


def test_model_dump_rejects_non_integer_shape(tmp_path):
    path, lines = _dump_lines(tmp_path)
    lines[3] = lines[3].replace("shape 1 2", "shape 1.5 2")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"model\.txt:4: invalid literal"):
        load_party_models(path)


@pytest.mark.parametrize("old,new,message", [
    ("parties 2 num_classes 2 blocks 1", "junk 2 junk 2 junk 1",
     "expected 'parties N num_classes C blocks B'"),
    ("parties 2 num_classes 2 blocks 1", "parties 2 num_classes 2 blocks 1 extra 3",
     "expected 'parties N num_classes C blocks B'"),
    ("party 0 input_dims 2 3 output_dims 2 1", "xyz 9 foo 2 3 output_dims 2 1",
     "expected 'party 0 input_dims ... output_dims ...'"),
    ("party 0 input_dims 2 3 output_dims 2 1", "party 0 input_dims 2 3 outdims 2 1",
     "expected 'party 0 input_dims ... output_dims ...'"),
    ("party 1 input_dims 2 3 output_dims 2 1", "party 0 input_dims 2 3 output_dims 2 1",
     "expected 'party 1 input_dims ... output_dims ...'"),
], ids=["header_keywords", "header_extra_field", "party_keywords",
        "party_output_keyword", "party_out_of_order"])
def test_model_dump_rejects_wrong_header_keywords(tmp_path, old, new, message):
    path, lines = _dump_lines(tmp_path)
    at = lines.index(old)
    lines[at] = new
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"model.txt:{at + 1}: {message}")):
        load_party_models(path)


def _no_blocks(lines):
    lines[1] = lines[1].replace("blocks 1", "blocks 0")
    for at in (7, 14):  # each vqc array holds (0, 2, 3) angles
        lines[at] = lines[at].replace("shape 1 2 3", "shape 0 2 3")
        lines[at + 1] = ""


def _no_classes(lines):
    lines[1] = lines[1].replace("num_classes 2", "num_classes 0")


def _no_parties(lines):
    lines[1:] = ["parties 0 num_classes 2 blocks 1"]


def _no_core(lines):
    # Party 0 keeps no core and a one-qubit circuit.  With num_classes 1 this
    # dump loaded; with 2 the qubit count refused it at the vqc values.
    lines[2:9] = ["party 0 input_dims output_dims",
                  "array party0.vqc shape 1 1 3", "0.0 0.0 0.0"]


# Dumps that loaded although party_forward could not run them: at blocks 0
# it failed with "not enough values to unpack", without a core with an
# IndexError.  Each is refused at the line at fault.
HEADER_BOUNDS = "need parties >= 1, num_classes >= 2 and blocks >= 1"
DEGENERATE_DUMPS = {
    "no_blocks": (_no_blocks, 2, HEADER_BOUNDS),
    "no_classes": (_no_classes, 2, HEADER_BOUNDS),
    "no_parties": (_no_parties, 2, HEADER_BOUNDS),
    "no_core": (_no_core, 3, "expected 'party 0 input_dims ... output_dims ...'"),
}


@pytest.mark.parametrize("case", DEGENERATE_DUMPS)
def test_model_dump_that_cannot_run_is_refused(tmp_path, case):
    edit, at, message = DEGENERATE_DUMPS[case]
    path, lines = _dump_lines(tmp_path)
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"model.txt:{at}: {message}")):
        load_party_models(path)


@pytest.mark.parametrize("old,new,message", [
    ("party 0 input_dims 2 3 output_dims 2 1",
     "party 0 input_dims 3 2 output_dims 2 1",
     "party 0's arrays have input_dims, output_dims and blocks ([2, 3], [2, 1], "
     "1), its lines say ([3, 2], [2, 1], 1)"),
    ("party 0 input_dims 2 3 output_dims 2 1",
     "party 0 input_dims 2 3 output_dims 2",
     "party 0's arrays have input_dims, output_dims and blocks ([2, 3], [2, 1], "
     "1), its lines say ([2, 3], [2], 1)"),
    ("parties 2 num_classes 2 blocks 1", "parties 2 num_classes 2 blocks 2",
     "party 0's arrays have input_dims, output_dims and blocks ([2, 3], [2, 1], "
     "1), its lines say ([2, 3], [2, 1], 2)"),
    ("array party1.vqc shape 1 2 3", "array party1.vqc shape 1 3 2",
     "vqc_angles has shape (1, 3, 2), expected (blocks >= 1, 2, 3)"),
], ids=["input_dims", "output_dims", "blocks", "vqc_qubits"])
def test_model_dump_lines_must_match_its_arrays(tmp_path, old, new, message):
    path, lines = _dump_lines(tmp_path)
    at = lines.index(old)
    lines[at] = new
    path.write_text("\n".join(lines) + "\n")
    last = 9 if old.startswith(("party 0", "parties")) else 16
    with pytest.raises(ValueError, match=re.escape(f"model.txt:{last}: {message}")):
        load_party_models(path)


@pytest.mark.parametrize("edit", ["appended_line", "header_names_fewer_parties"])
def test_model_dump_rejects_lines_after_the_last_party(tmp_path, edit):
    # Reading stopped after the header's party count: junk loaded, and a
    # header naming fewer parties dropped the rest silently.
    path, lines = _dump_lines(tmp_path)  # two parties
    if edit == "appended_line":
        lines.append("junk")
        at, last = len(lines), 1
    else:
        lines[1] = lines[1].replace("parties 2 ", "parties 1 ")
        at, last = lines.index("party 1 input_dims 2 3 output_dims 2 1") + 1, 0
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(
            f"model.txt:{at}: unexpected line after party {last}")):
        load_party_models(path)


def test_inspect_reports_a_truncated_dump(tmp_path, capsys):
    csv = make_csv(tmp_path / "d.csv")
    config = csv_config(tmp_path, csv)
    path, lines = _dump_lines(tmp_path)
    path.write_text("\n".join(lines[:5]) + "\n")
    assert run_cli("inspect", "--config", config, "--model", str(path),
                   "--sample", "0") == 1
    assert capsys.readouterr().err.startswith(f"error: {path}:6: ")


def test_inspect_rejects_party_count_mismatch(tmp_path, capsys, monkeypatch):
    path, _ = _dump_lines(tmp_path)  # two parties
    monkeypatch.chdir(ROOT)  # the bundled config names its CSV relative to here
    assert run_cli("inspect", "--config", "configs/breast_cancer.yaml",
                   "--model", str(path), "--sample", "0") == 1
    assert capsys.readouterr() == ("", f"error: {path}: dump holds 2 parties, "
                                       "the config's dataset has 3\n")


def test_inspect_skips_the_joint_column_past_the_register_cap(tmp_path, capsys,
                                                              monkeypatch):
    # Three 8-qubit parties and 2 classes need a 26-qubit joint register.
    # Such a model trains, but inspect printed its BBAs and then ended with
    # "error: joint circuit needs 26 qubits" and exit 1.
    rng = np.random.default_rng(7)
    models = [PartyModel.random_init([2, 5], [2, 4], 2, 1, 2, rng) for _ in range(3)]
    path = tmp_path / "model.txt"
    save_party_models(path, models)
    text = (ROOT / "configs" / "breast_cancer.yaml").read_text()
    config = write_yaml(tmp_path / "wide.yaml",
                        with_line(text, "parties", "  output_dims: [2, 4]"))
    monkeypatch.chdir(ROOT)  # the bundled config names its CSV relative to here
    assert run_cli("inspect", "--config", config, "--model", str(path),
                   "--sample", "0") == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    at = lines.index("per-class plausibilities:")
    assert lines[at + 1] == ("  joint column skipped: the joint circuit needs "
                             "26 qubits, more than qsim.MAX_QUBITS=24")
    _, test_set = cli.build_datasets(load_config(config), 0)
    states = [model.party_forward(m, x)[0] for m, x in zip(models, test_set.sample(0))]
    factorized = model.fuse_factorized([model.party_marginals(s, 2) for s in states])
    assert lines[at + 2:at + 4] == [f"  class {c}: factorized {factorized[c]:.9f}"
                                    for c in range(2)]
    assert lines[at + 4].startswith("prediction: class ")


# The breast-cancer topology: input_dims [2, 5], output_dims [2, 2], rank 2,
# vqc_blocks 1, and the dataset's 2 classes.  Each case changes one field of
# every party.
DUMP_TOPOLOGY_CASES = {
    "input_dims": (([2, 3], [2, 2], 2, 1, 2), "party 0 has input_dims [2, 3], "
                   "config.parties.input_dims is [2, 5]"),
    "output_dims": (([2, 5], [4, 1], 2, 1, 2), "party 0 has output_dims [4, 1], "
                    "config.parties.output_dims is [2, 2]"),
    "rank": (([2, 5], [2, 2], 3, 1, 2), "party 0 has TT ranks [3], "
             "config.parties.rank is 2"),
    "vqc_blocks": (([2, 5], [2, 2], 2, 2, 2), "party 0 has vqc_blocks 2, "
                   "config.parties.vqc_blocks is 1"),
    "num_classes": (([2, 5], [2, 2], 2, 1, 3), "dump holds 3 classes, the "
                    "config's dataset has 2"),
}


@pytest.mark.parametrize("field", DUMP_TOPOLOGY_CASES)
def test_inspect_rejects_dump_topology_mismatch(tmp_path, capsys, monkeypatch,
                                                field):
    topology, message = DUMP_TOPOLOGY_CASES[field]
    rng = np.random.default_rng(6)
    path = tmp_path / "model.txt"
    save_party_models(path, [PartyModel.random_init(*topology, rng)
                             for _ in range(3)])
    monkeypatch.chdir(ROOT)  # the bundled config names its CSV relative to here
    assert run_cli("inspect", "--config", "configs/breast_cancer.yaml",
                   "--model", str(path), "--sample", "0") == 1
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


# --- dataset construction --------------------------------------------------

def idx_config(tmp_path, labels, test_labels=None, dataset_lines="  classes: [3, 6]"):
    """IDX train/test files of random 28x28 images with ``labels`` (the test
    split gets ``test_labels`` if given) and a config that reads them."""
    rng = np.random.default_rng(5)
    files = {}
    for split, split_labels in (("train", labels), ("test", test_labels or labels)):
        files[split] = (tmp_path / f"{split}-img.idx", tmp_path / f"{split}-lab.idx")
        images = rng.uniform(0.2, 0.8, size=(len(split_labels), 28, 28))
        for r in (0, 14):  # a black and a white pixel in every quadrant
            for c in (0, 14):
                images[:, r, c] = 0.0
                images[:, r + 13, c + 13] = 1.0
        data.write_idx_images(*files[split], images, np.array(split_labels))
    return write_yaml(tmp_path / "idx.yaml", f"""
dataset:
  kind: idx
  train_images: {files["train"][0]}
  train_labels: {files["train"][1]}
  test_images: {files["test"][0]}
  test_labels: {files["test"][1]}
{dataset_lines}
parties:
  input_dims: [2, 7, 7, 2]
  output_dims: [1, 2, 2, 1]
""")


def test_idx_party_blocks_span_unit_interval(tmp_path):
    # Every quadrant holds a black and a white pixel, so each party block
    # must reach exactly 0 and 1 after the single [0, 1] scaling.
    config = idx_config(tmp_path, [3, 6, 3, 6, 1, 3])
    for split in cli.build_datasets(load_config(config), seed=0):
        assert split.num_samples == 5
        for block in split.party_blocks:
            assert block.min() == 0.0 and block.max() == 1.0


@pytest.mark.parametrize("dataset_lines,message", [
    ("", "config.parties.output_dims: product 4 is fewer qubits than the "
     "dataset's 10 classes"),
    ("  classes: 3", "config.dataset.classes: must be a list of at least two "
     "distinct integers, got 3"),
    ("  classes: [3, 3]", "config.dataset.classes: must be a list of at least "
     "two distinct integers, got [3, 3]"),
], ids=["all_ten_digits", "not_a_list", "duplicate"])
def test_idx_classes_and_num_classes_checked_at_load(tmp_path, capsys, dataset_lines,
                                                     message):
    config = idx_config(tmp_path, [3, 6, 1], dataset_lines=dataset_lines)
    assert run_cli("train", "--config", config) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_idx_three_classes_on_four_qubits_load_as_three(tmp_path, capsys):
    # The class count is the length of classes; a 2-class dump no longer fits.
    config = idx_config(tmp_path, [3, 6, 1], dataset_lines="  classes: [3, 6, 1]")
    cfg = load_config(config)
    assert [split.num_classes for split in cli.build_datasets(cfg, seed=0)] == [3, 3]
    out = tmp_path / "run"
    assert run_cli("train", "--config", config, "--out", str(out)) == 0
    assert [m.num_classes for m in load_party_models(out / "model.txt")] == [3] * 4
    assert run_cli("inspect", "--config", config, "--model", str(out / "model.txt"),
                   "--sample", "0") == 0
    dump = tmp_path / "two-class-model.txt"
    rng = np.random.default_rng(2)
    save_party_models(dump, [PartyModel.random_init([2, 7, 7, 2], [1, 2, 2, 1], 2, 2,
                                                    2, rng) for _ in range(4)])
    capsys.readouterr()
    assert run_cli("inspect", "--config", config, "--model", str(dump),
                   "--sample", "0") == 1
    assert capsys.readouterr() == ("", f"error: {dump}: dump holds 2 classes, the "
                                       "config's dataset has 3\n")


@pytest.mark.parametrize("kind,dims,message", [
    ("csv", "[4]", "product 4 does not divide the 6 feature_columns into parties"),
    ("idx", "[1, 7, 7, 2]", "product 98 is not 196, the pixels of a party's 14x14 "
     "image quadrant"),
], ids=["csv", "idx"])
def test_input_dims_product_must_split_the_features(tmp_path, capsys, kind, dims,
                                                    message):
    # A CSV's parties are runs of prod(input_dims) columns; an image's are
    # its four quadrants.
    config = (csv_config(tmp_path, make_csv(tmp_path / "d.csv")) if kind == "csv"
              else idx_config(tmp_path, [3, 6]))
    text = with_line(Path(config).read_text(), "parties", f"  input_dims: {dims}")
    assert run_cli("train", "--config", write_yaml(tmp_path / "dims.yaml", text)) == 1
    assert capsys.readouterr() == ("", f"error: config.parties.input_dims: {message}\n")


def test_idx_one_class_config_rejected_at_load(tmp_path, capsys):
    # Only the classes check stops the run before training needs a second
    # class: one class fits any register.
    config = idx_config(tmp_path, [3, 6, 3], dataset_lines="  classes: [3]")
    message = ("config.dataset.classes: must be a list of at least two distinct "
               "integers, got [3]")
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(config)
    assert run_cli("train", "--config", config) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("split", ["train", "test"])
def test_idx_images_not_28x28_name_the_file(tmp_path, capsys, split):
    config = idx_config(tmp_path, [3, 6, 3, 6, 1])
    images = tmp_path / f"{split}-img.idx"
    data.write_idx_images(images, tmp_path / f"{split}-lab.idx",
                          np.zeros((5, 20, 20)), np.array([3, 6, 3, 6, 1]))
    assert run_cli("train", "--config", config) == 1
    assert capsys.readouterr().err == (
        f"error: config.dataset.{split}_images: {images} holds 20x20 images; "
        "the quadrant split needs 28x28\n")


@pytest.mark.parametrize("line,shown", [
    ("  max_train_samples: '10'", "'10'"), ("  max_train_samples: 2.5", "2.5"),
    ("  max_train_samples: -5", "-5"), ("  max_train_samples: true", "True"),
    ("  max_test_samples: 0", "0"), ("  max_test_samples: null", "None"),
], ids=["train_str", "train_float", "train_negative", "train_bool", "test_zero",
        "test_null"])
def test_idx_sample_caps_must_be_positive_integers(tmp_path, capsys, line, shown):
    config = idx_config(tmp_path, [3, 6, 3, 6],
                        dataset_lines=f"  classes: [3, 6]\n{line}")
    assert run_cli("train", "--config", config) == 1
    key = line.split(":")[0].strip()
    assert capsys.readouterr().err == (f"error: config.dataset.{key}: must be a "
                                       f"positive integer, got {shown}\n")


@pytest.mark.parametrize("split,train_labels,test_labels", [
    ("train", [1, 1], [3, 6]), ("test", [3, 6], [1, 1])], ids=["train", "test"])
def test_idx_classes_filter_leaving_a_split_empty_names_the_field(
        tmp_path, capsys, split, train_labels, test_labels):
    config = idx_config(tmp_path, train_labels, test_labels)
    assert run_cli("train", "--config", config) == 1
    assert capsys.readouterr().err == (f"error: config.dataset.classes: no {split} "
                                       "sample has a label in [3, 6]\n")


def test_idx_class_absent_from_the_train_file_names_it(tmp_path, capsys):
    config = idx_config(tmp_path, [3, 6, 3, 6], dataset_lines="  classes: [3, 42]")
    assert run_cli("train", "--config", config) == 1
    assert capsys.readouterr().err == ("error: config.dataset.classes: no train "
                                       "sample has label 42\n")


def write_labelled_csv(path, labels):
    """Six random feature columns f0..f5 and the given ``target`` cells."""
    rng = np.random.default_rng(1)
    lines = [",".join([f"f{i}" for i in range(6)] + ["target"])] + [
        ",".join([repr(float(v)) for v in rng.normal(size=6)] + [str(label)])
        for label in labels]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("labels,lines,message", [
    ([], [], "config.dataset.path: {csv} has no data rows"),
    ([0] * 12, [], "config.dataset.label_column: every row of {csv} has class 0; "
     "training needs classes 0 and 1"),
    ([0] * 12, ["  balance: true"], "config.dataset.label_column: every row of "
     "{csv} has class 0; training needs classes 0 and 1"),
    ([0, 1], ["  test_fraction: 0.2"], "config.dataset.test_fraction: 0.2 of 2 "
     "rows leaves an empty train or test split"),
    ([0, 1], ["  test_fraction: 0.9"], "config.dataset.test_fraction: 0.9 of 2 "
     "rows leaves an empty train or test split"),
], ids=["no_rows", "one_class", "one_class_balanced", "empty_test_split",
        "empty_train_split"])
def test_csv_that_cannot_train_both_classes_names_the_field(tmp_path, capsys,
                                                            labels, lines, message):
    csv = write_labelled_csv(tmp_path / "d.csv", labels)
    text = Path(csv_config(tmp_path, csv)).read_text()
    for line in lines:
        text = with_line(text, "dataset", line)
    config = write_yaml(tmp_path / "classes.yaml", text)
    assert run_cli("train", "--config", config) == 1
    assert capsys.readouterr().err == f"error: {message.format(csv=csv)}\n"


@pytest.mark.parametrize("seed", [0, 7])
def test_idx_rows_chosen_before_scaling_match_scaling_everything(seed):
    rng = np.random.default_rng(100 + seed)
    images = rng.integers(0, 256, size=(300, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=300)
    kept = int(np.isin(labels, [3, 6]).sum())
    for max_n in (1, kept - 1, kept, kept + 1, 10 * kept):
        got = cli._idx_to_dataset(images, labels, [3, 6], max_n, seed, 1)
        want = idx_pipeline(images, labels, [3, 6], max_n, seed, 1)
        assert got.num_samples == min(max_n, kept)
        for g, w in zip(got.party_blocks + [got.labels],
                        want.party_blocks + [want.labels]):
            assert g.dtype == np.float64
            assert np.array_equal(g, w)


def kept_rows_set_up_peak(tmp_path):
    """tracemalloc peak of building datasets from 2020 IDX images (2000 train,
    20 test) of which 10 + 10 are kept."""
    rng = np.random.default_rng(3)
    config = idx_config(tmp_path, list(rng.choice([3, 6], size=2000)), [3, 6] * 10,
                        dataset_lines="  classes: [3, 6]\n  max_train_samples: 10\n"
                                      "  max_test_samples: 10")
    cfg = load_config(config)
    tracemalloc.start()
    try:
        train_set, test_set = cli.build_datasets(cfg, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert train_set.num_samples == test_set.num_samples == 10
    return peak


def test_idx_set_up_converts_only_the_kept_rows(tmp_path):
    # A float64 copy of every pixel would take all_pixels bytes, twice the bound.
    all_pixels = 2020 * 28 * 28 * 8
    assert kept_rows_set_up_peak(tmp_path) < all_pixels / 2


def test_idx_set_up_reads_only_the_kept_rows(tmp_path):
    # Reading the whole uint8 image payload into memory would take twice the bound.
    payload = 2020 * 28 * 28
    assert kept_rows_set_up_peak(tmp_path) < payload / 2


@pytest.mark.parametrize("classes,missing", [([3, 300], 300), ([-1, 3], -1)])
def test_idx_class_no_label_can_hold_is_missing_from_train(tmp_path, classes,
                                                             missing):
    # IDX labels are bytes, so a class outside 0..255 is simply never found.
    config = idx_config(tmp_path, [3, 6] * 4, dataset_lines=f"  classes: {classes}")
    with pytest.raises(ConfigError, match=rf"^config\.dataset\.classes: no train "
                                          rf"sample has label {missing}$"):
        cli.build_datasets(load_config(config), seed=0)


# --- train command ---------------------------------------------------------

def run_cli(*argv):
    return cli.main(list(argv))


def test_train_writes_expected_artifacts(tmp_path):
    csv = make_csv(tmp_path / "d.csv")
    config = csv_config(tmp_path, csv)
    assert run_cli("train", "--config", config) == 0
    out = tmp_path / "run"
    assert (out / "trace.csv").exists()
    assert (out / "model.txt").exists()
    summary = (out / "summary.txt").read_text()
    assert "model_kind eviqvfl" in summary
    # 3-feature rank-2 party: TT (3*2*2=12... ) realized counts from the model
    counts = [int(v) for v in
              [line for line in summary.splitlines()
               if line.startswith("params_per_party")][0].split()[1:]]
    back = load_party_models(out / "model.txt")
    assert counts == [m.param_count() for m in back]


def test_train_rerun_is_byte_identical(tmp_path):
    csv = make_csv(tmp_path / "d.csv")
    config = csv_config(tmp_path, csv)
    assert run_cli("train", "--config", config) == 0
    first = {name: (tmp_path / "run" / name).read_bytes()
             for name in ("trace.csv", "model.txt", "summary.txt")}
    assert run_cli("train", "--config", config) == 0
    for name, blob in first.items():
        assert (tmp_path / "run" / name).read_bytes() == blob


def test_seed_flag_changes_the_run(tmp_path):
    csv = make_csv(tmp_path / "d.csv")
    config = csv_config(tmp_path, csv)
    assert run_cli("train", "--config", config, "--seed", "0") == 0
    trace0 = (tmp_path / "run" / "trace.csv").read_text()
    assert run_cli("train", "--config", config, "--seed", "1") == 0
    assert (tmp_path / "run" / "trace.csv").read_text() != trace0


def test_out_flag_beats_config(tmp_path, monkeypatch):
    csv = make_csv(tmp_path / "d.csv")
    config = csv_config(tmp_path, csv)
    env_dir, flag_dir = tmp_path / "from_env", tmp_path / "from_flag"
    # No environment variable chooses the output directory.
    monkeypatch.setenv("EVIFED_OUT_DIR", str(env_dir))
    assert run_cli("train", "--config", config) == 0
    assert (tmp_path / "run" / "trace.csv").exists() and not env_dir.exists()
    assert run_cli("train", "--config", config, "--out", str(flag_dir)) == 0
    assert (flag_dir / "trace.csv").exists()


def diverging_config(tmp_path, kind="eviqvfl", rate="1.0e+300", epochs=2):
    """The bundled breast-cancer config as ``kind`` at learning rate ``rate``;
    run it from the repository root, as it names its CSV relative to there."""
    text = (ROOT / "configs" / "breast_cancer.yaml").read_text()
    for section, line in (("config", f"model_kind: {kind}"),
                          ("train", f"  learning_rate: {rate}"),
                          ("train", f"  epochs: {epochs}")):
        text = with_line(text, section, line)
    return write_yaml(tmp_path / "lr.yaml", text)


@pytest.mark.parametrize("kind,rate,epochs,loss", [
    ("eviqvfl", "1.0e+300", 2, "nan"),
    ("classical_fuse", "1.0e+200", 2, "nan"),
], ids=["eviqvfl", "classical_fuse_overflow"])
def test_train_stops_at_the_first_non_finite_epoch(tmp_path, capsys, monkeypatch,
                                                   kind, rate, epochs, loss):
    # The first run exited 0 with a nan loss in trace.csv, and its model.txt
    # held nan, which inspect refuses.  The second stopped, but warned
    # "overflow encountered in matmul" at the fusing server first.
    monkeypatch.chdir(ROOT)
    out = tmp_path / "run"
    config = diverging_config(tmp_path, kind, rate, epochs)
    assert run_cli("train", "--config", config, "--out", str(out)) == 1
    assert capsys.readouterr() == ("", f"error: model_kind {kind}: training "
                                       f"diverged at epoch 0: mean loss {loss}\n")
    assert not out.exists()


def test_train_keeps_a_finite_loss_where_a_probability_underflows(
        tmp_path, capsys, monkeypatch):
    # Once a logit gap passed about 745, the true class's softmax probability
    # underflowed to 0 and its loss read inf: the run stopped with "training
    # diverged at epoch 0: mean loss inf", although every parameter and logit
    # was finite.  Before that stop existed, the run wrote inf into trace.csv.
    monkeypatch.chdir(ROOT)
    out = tmp_path / "run"
    config = diverging_config(tmp_path, "classical_fuse", "10.0", 20)
    assert run_cli("train", "--config", config, "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    records = train.TrainTrace.load(out / "trace.csv").records
    assert len(records) == 20
    assert all(np.isfinite(r.loss) for r in records)


@pytest.mark.parametrize("existed", [[], ["a"], ["a", "a/b"]],
                         ids=["neither", "parent", "both"])
def test_refused_train_removes_only_the_levels_it_created(tmp_path, capsys,
                                                          monkeypatch, existed):
    # A diverged run left the output directory it made, empty.
    monkeypatch.chdir(ROOT)
    for level in existed:
        (tmp_path / level).mkdir()
    assert run_cli("train", "--config", diverging_config(tmp_path),
                   "--out", str(tmp_path / "a" / "b")) == 1
    assert "training diverged" in capsys.readouterr().err
    assert sorted(p.relative_to(tmp_path).as_posix()
                  for p in tmp_path.rglob("*")) == existed + ["lr.yaml"]


def test_refused_train_keeps_a_created_level_that_holds_a_file(tmp_path, capsys,
                                                               monkeypatch):
    out = tmp_path / "a" / "b"

    def fail_after_a_write(*args):
        (tmp_path / "a" / "note.txt").write_text("kept\n")
        raise ValueError("stopped")

    monkeypatch.setattr(train, "train_run", fail_after_a_write)
    assert run_cli("train", "--config", csv_config(tmp_path, make_csv(
        tmp_path / "d.csv")), "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: model_kind eviqvfl: stopped\n"
    assert not out.exists() and (tmp_path / "a" / "note.txt").exists()


def test_train_into_an_unwritable_path_fails_before_training(tmp_path, capsys,
                                                             monkeypatch):
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(train, "train_run", lambda *args: pytest.fail("trained"))
    assert run_cli("train", "--config", csv_config(tmp_path, make_csv(
        tmp_path / "d.csv")), "--out", str(tmp_path / "file" / "run")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Not a directory" in err
    assert err.count("\n") == 1
    assert (tmp_path / "file").read_text() == ""


@pytest.mark.parametrize("kind", cli.MODEL_KINDS)
def test_train_supports_baseline_kinds(tmp_path, kind):
    csv = make_csv(tmp_path / "d.csv")
    config = csv_config(tmp_path, csv, model_kind=kind, out_name=kind)
    assert run_cli("train", "--config", config) == 0
    summary = (tmp_path / kind / "summary.txt").read_text()
    assert f"model_kind {kind}" in summary
    assert (tmp_path / kind / "model.txt").exists() == (kind == "eviqvfl")
    # One entry per party (two parties of 3 features), each that party's own
    # count; the server layers of classical_fuse and measure_then_vqc count
    # toward no party.
    rng = np.random.default_rng(0)
    quantum = PartyModel.random_init([3], [2], 2, 1, 2, rng).param_count()
    classical = MLPParty.random_init(3, mlp_width_for_budget(3, 2, quantum), 2,
                                     rng).param_count()
    expected = classical if kind.startswith("classical") else quantum
    counts = [line for line in summary.splitlines()
              if line.startswith("params_per_party ")][0].split()[1:]
    assert counts == [str(expected)] * 2


def test_bad_config_returns_nonzero(tmp_path, capsys):
    bad = write_yaml(tmp_path / "bad.yaml", "dataset: {kind: csv}\n")
    assert run_cli("train", "--config", bad) == 1
    assert "error:" in capsys.readouterr().err


# --- verify command --------------------------------------------------------

def test_verify_single_suite_reports_pass(capsys):
    assert run_cli("verify", "--suite", "evidence") == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "properties passed" in out


# --- inspect command -------------------------------------------------------

def test_inspect_prints_bbas_and_matching_plausibilities(tmp_path, capsys):
    csv = make_csv(tmp_path / "d.csv")
    config = csv_config(tmp_path, csv)
    assert run_cli("train", "--config", config) == 0
    capsys.readouterr()
    assert run_cli("inspect", "--config", config,
                   "--model", str(tmp_path / "run" / "model.txt"),
                   "--sample", "0") == 0
    out = capsys.readouterr().out
    assert "party 0 output BBA" in out
    assert "combined BBA" in out
    assert "prediction: class" in out
    # Only the combined BBA's empty-set line names the conflict mass.
    lines = out.splitlines()
    combined = lines.index("combined BBA:")
    assert lines[combined + 1].startswith("  m[00] = ")
    assert lines[combined + 1].endswith("  (conflict)")
    assert sum("(conflict)" in line for line in lines) == 1
    for line in out.splitlines():
        if line.strip().startswith("class "):
            _, _, joint_word, joint, fact_word, fact = line.split()
            assert abs(float(joint) - float(fact)) < 1e-8


def test_inspect_sample_out_of_range(tmp_path, capsys):
    csv = make_csv(tmp_path / "d.csv")
    config = csv_config(tmp_path, csv)
    assert run_cli("train", "--config", config) == 0
    capsys.readouterr()
    assert run_cli("inspect", "--config", config,
                   "--model", str(tmp_path / "run" / "model.txt"),
                   "--sample", "10000") == 1
    assert capsys.readouterr() == ("", "error: --sample 10000: out of range "
                                       "(the test set has 20 samples)\n")


# --- export-curves command -------------------------------------------------

def test_export_curves_averages_runs(tmp_path):
    csv = make_csv(tmp_path / "d.csv")
    config = csv_config(tmp_path, csv)
    assert run_cli("train", "--config", config, "--seed", "0",
                   "--out", str(tmp_path / "s0")) == 0
    assert run_cli("train", "--config", config, "--seed", "1",
                   "--out", str(tmp_path / "s1")) == 0
    out_file = tmp_path / "curves.csv"
    assert run_cli("export-curves", str(tmp_path / "s0" / "trace.csv"),
                   str(tmp_path / "s1" / "trace.csv"),
                   "--out-file", str(out_file)) == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "epoch,mean_loss,mean_acc,n_runs"
    assert len(lines) == 3  # header + 2 epochs
    from evifed.train import TrainTrace
    t0 = TrainTrace.load(tmp_path / "s0" / "trace.csv")
    t1 = TrainTrace.load(tmp_path / "s1" / "trace.csv")
    first = lines[1].split(",")
    assert abs(float(first[1]) - (t0.records[0].loss + t1.records[0].loss) / 2) < 1e-12
    assert first[3] == "2"


def test_export_curves_rejects_mismatched_epochs(tmp_path, capsys):
    csv = make_csv(tmp_path / "d.csv")
    c2 = csv_config(tmp_path, csv, epochs=2, out_name="e2")
    c3 = csv_config(tmp_path, csv, epochs=3, out_name="e3")
    assert run_cli("train", "--config", c2) == 0
    assert run_cli("train", "--config", c3) == 0
    capsys.readouterr()
    e2, e3 = tmp_path / "e2" / "trace.csv", tmp_path / "e3" / "trace.csv"
    assert run_cli("export-curves", str(e2), str(e3),
                   "--out-file", str(tmp_path / "c.csv")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{e2} has 2" in err and f"{e3} has 3" in err, err


@pytest.mark.parametrize("body", ["0,0.5,0.8\n", "", "0,nan,0.8,0.75\n",
                                  "0,0.5,0.8,-3\n"],
                         ids=["three_fields", "header_only", "nan_loss",
                              "negative_acc"])
def test_export_curves_rejects_a_malformed_trace(tmp_path, capsys, body):
    path = tmp_path / "trace.csv"
    path.write_text("epoch,loss,train_acc,test_acc\n" + body)
    out_file = tmp_path / "c.csv"
    assert run_cli("export-curves", str(path), "--out-file", str(out_file)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:") and err.count("\n") == 1, err
    assert not out_file.exists()


def test_trace_has_four_columns_and_a_five_column_trace_is_refused(tmp_path,
                                                                   capsys):
    # Every trace column is reproducible; a trace with the old wall-clock
    # seconds column fails at its header.
    csv = make_csv(tmp_path / "d.csv")
    assert run_cli("train", "--config", csv_config(tmp_path, csv)) == 0
    lines = (tmp_path / "run" / "trace.csv").read_text().splitlines()
    assert lines[0] == "epoch,loss,train_acc,test_acc"
    assert [len(line.split(",")) for line in lines[1:]] == [4, 4]
    old = tmp_path / "old.csv"
    old.write_text("epoch,loss,train_acc,test_acc,seconds\n"
                   + "".join(f"{line},0.0\n" for line in lines[1:]))
    out_file = tmp_path / "c.csv"
    capsys.readouterr()
    assert run_cli("export-curves", str(old), "--out-file", str(out_file)) == 1
    assert capsys.readouterr() == ("", f"error: {old}:1: expected the header "
                                       "'epoch,loss,train_acc,test_acc'\n")
    assert not out_file.exists()


def test_module_entry_point_runs_without_a_runpy_warning():
    # ``python -m evifed.cli`` runs the CLI from a checkout without the console
    # script; runpy warns, and executes the module twice, if the package has
    # imported it already.
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "evifed.cli",
         "verify", "--suite", "qsim"],
        cwd=root, env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
