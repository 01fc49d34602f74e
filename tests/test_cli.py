"""Command-line front end: configs, training runs, model dumps, curves."""
import dataclasses
import os
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml

from evifed import cli, data, train
from evifed.baselines import MLPParty, mlp_width_for_budget
from evifed.cli import ConfigError, load_config, load_party_models, \
    save_party_models, validate_party_topology
from evifed.model import PartyModel

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
  widths: [3, 3]
model_kind: {model_kind}
parties:
  input_dims: [3]
  output_dims: [2]
  rank: 2
  vqc_blocks: 1
  num_classes: 2
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
parties: {{input_dims: [3], output_dims: [2], num_classes: 2}}
"""
    with pytest.raises(ConfigError, match="file not found"):
        cli_load_from_text(cfg)


def test_bad_dataset_kind(tmp_path):
    with pytest.raises(ConfigError, match="dataset.kind"):
        cli_load_from_text(
            "dataset: {kind: parquet}\n"
            "parties: {input_dims: [3], output_dims: [2], num_classes: 2}\n")


def test_train_section_errors_carry_field_path(tmp_path):
    csv = make_csv(tmp_path / "d.csv")
    cfg = f"""
dataset:
  kind: csv
  path: {csv}
  feature_columns: [f0]
  label_column: target
  widths: [1]
parties: {{input_dims: [1], output_dims: [2], num_classes: 2}}
train: {{learning_rate: -1.0}}
"""
    with pytest.raises(ConfigError, match="config.train"):
        cli_load_from_text(cfg)


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
    anchor = {"config": "out_dir:", "config.dataset": "  widths:",
              "config.parties": "  rank:"}[section]
    config = write_yaml(tmp_path / "typo.yaml",
                        text.replace(anchor, f"{line}\n{anchor}"))
    key = line.split(":")[0].strip()
    with pytest.raises(ConfigError, match=rf"^{section}\.{key}: unknown field$"):
        load_config(config)


@pytest.mark.parametrize("key", ["feature_columns", "label_column", "widths"])
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
    # section's mapping and label_map's absent map excepted).
    for section, doc in (("config", schema), ("parties", schema["parties"]),
                         ("dataset.idx", schema["dataset"]),
                         ("dataset.csv", schema["dataset"]), ("train", schema["train"])):
        for key, (default, _, _) in table[section].items():
            if default is not cli.REQUIRED and key not in ("train", "label_map"):
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
    ("train", "  adam_epsilon: 1e-8",
     "config.train.adam_epsilon: must be a finite number, got '1e-8'"),
    ("train", "  learning_rate: true",
     "config.train.learning_rate: must be a finite number > 0, got True"),
    ("train", "  epochs: 2.0",
     "config.train.epochs: must be a positive integer, got 2.0"),
    ("train", "  adam_betas: [0.9]",
     "config.train.adam_betas: must be two finite numbers, got [0.9]"),
    ("parties", "  input_dims: 3", "config.parties.input_dims: must be a "
     "non-empty list of positive integers, got 3"),
    ("parties", "  output_dims: [2.0]", "config.parties.output_dims: must be a "
     "non-empty list of positive integers, got [2.0]"),
    ("parties", "  num_classes: '2'",
     "config.parties.num_classes: must be a positive integer, got '2'"),
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
    ("dataset", "  widths: [3, 2]",
     "config.dataset.widths: [3, 2] sum to 5, not the 6 feature_columns"),
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


@pytest.mark.parametrize("key,value", [("grad_mode", "parameter_shift"),
                                       ("grad_mode", "finite_difference"),
                                       ("eval_mode", "joint")],
                         ids=["parameter_shift", "finite_difference", "eval_mode"])
def test_removed_grad_mode_key_is_one_error_line(tmp_path, capsys, key, value):
    # Training always uses adjoint gradients and factorized evaluation; the
    # old selectors are not fields.
    csv = make_csv(tmp_path / "d.csv")
    text = Path(csv_config(tmp_path, csv)).read_text()
    config = write_yaml(tmp_path / "gm.yaml",
                        with_line(text, "train", f"  {key}: {value}"))
    assert run_cli("train", "--config", config) == 1
    assert capsys.readouterr().err == f"error: config.train.{key}: unknown field\n"


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


def test_csv_num_classes_must_match_the_two_label_classes(tmp_path):
    csv = make_csv(tmp_path / "d.csv")
    text = Path(csv_config(tmp_path, csv)).read_text()
    text = with_line(with_line(text, "parties", "  output_dims: [4]"),
                     "parties", "  num_classes: 3")
    with pytest.raises(ConfigError, match=r"^config\.parties\.num_classes: 3 "
                                          "differs from the dataset's 2 classes$"):
        load_config(write_yaml(tmp_path / "c3.yaml", text))


@pytest.mark.parametrize("epochs", [0, -3])
def test_train_rejects_fewer_than_one_epoch(tmp_path, capsys, epochs):
    # TrainConfig itself accepts epochs=0 (a run that trains nothing); the
    # command would have no final epoch to report.
    csv = make_csv(tmp_path / "d.csv")
    config = csv_config(tmp_path, csv, epochs=epochs)
    assert run_cli("train", "--config", config) == 1
    assert capsys.readouterr().err == \
        f"error: config.train.epochs: must be a positive integer, got {epochs}\n"


@pytest.mark.parametrize("widths", ["10", "[]", "[3, 0]", "[3.0, 3]", "[true, 5]"])
def test_csv_widths_must_be_a_list_of_positive_integers(tmp_path, capsys, widths):
    csv = make_csv(tmp_path / "d.csv")
    text = Path(csv_config(tmp_path, csv)).read_text()
    config = write_yaml(tmp_path / "w.yaml",
                        with_line(text, "dataset", f"  widths: {widths}"))
    assert run_cli("train", "--config", config) == 1
    value = yaml.safe_load(widths)
    assert capsys.readouterr().err == (
        "error: config.dataset.widths: must be a non-empty list of positive "
        f"integers, got {value!r}\n")


@pytest.mark.parametrize("label_map,message", [
    ("{'0': 0, '1': 2}", "value 2 of '1' is not a class in 0..1"),
    ("{'0': -1, '1': 1}", "value -1 of '0' is not a class in 0..1"),
    ("{'0': 0, '1': 1.0}", "value 1.0 of '1' is not a class in 0..1"),
    ("{'0': false, '1': true}", "value False of '0' is not a class in 0..1"),
    ("[0, 1]", "must be a mapping of label cells to classes 0..1, got [0, 1]"),
], ids=["above", "negative", "float", "bool", "not_a_mapping"])
def test_csv_label_map_values_must_be_classes(tmp_path, capsys, label_map, message):
    csv = make_csv(tmp_path / "d.csv")
    text = Path(csv_config(tmp_path, csv)).read_text()
    config = write_yaml(tmp_path / "lm.yaml",
                        with_line(text, "dataset", f"  label_map: {label_map}"))
    assert run_cli("train", "--config", config) == 1
    assert capsys.readouterr().err == f"error: config.dataset.label_map: {message}\n"


@pytest.mark.parametrize("label_map,key", [
    ("{0: 0, 1: 1}", "0"), ("{'0': 0, 1: 1}", "1"), ("{yes: 1, 'no': 0}", "True"),
], ids=["int", "one_int", "yaml_bool"])
def test_csv_label_map_keys_must_be_strings(tmp_path, capsys, label_map, key):
    # CSV label cells are text, so an unquoted 0 would never match one.
    csv = make_csv(tmp_path / "d.csv")
    text = Path(csv_config(tmp_path, csv)).read_text()
    config = write_yaml(tmp_path / "lm.yaml",
                        with_line(text, "dataset", f"  label_map: {label_map}"))
    assert run_cli("train", "--config", config) == 1
    assert capsys.readouterr().err == (
        f"error: config.dataset.label_map: key {key} is not a string; quote "
        "it, since label cells are read as text\n")


def test_csv_label_map_within_classes_is_accepted(tmp_path):
    csv = make_csv(tmp_path / "d.csv")
    text = Path(csv_config(tmp_path, csv)).read_text()
    config = write_yaml(tmp_path / "lm.yaml",
                        with_line(text, "dataset", "  label_map: {'0': 1, '1': 0}"))
    assert load_config(config).dataset["label_map"] == {"0": 1, "1": 0}


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
    assert load_config(config).model_kind == raw["model_kind"]


def test_topology_rejects_too_few_qubits():
    with pytest.raises(ConfigError, match="fewer qubits"):
        validate_party_topology(
            {"input_dims": [4], "output_dims": [2], "num_classes": 4})


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
        validate_party_topology(
            {"input_dims": [0, 4], "output_dims": [2], "num_classes": 2})


def test_topology_rejects_bad_rank():
    with pytest.raises(ConfigError, match="rank"):
        validate_party_topology(
            {"input_dims": [4], "output_dims": [2], "num_classes": 2, "rank": 0})


def test_topology_rejects_operator_over_dense_cap(tmp_path, capsys):
    # The layer contracts its cores into one (out, in) operator per call.
    csv = make_csv(tmp_path / "d.csv")
    text = with_line(Path(csv_config(tmp_path, csv)).read_text(), "parties",
                     "  input_dims: [1000, 1001]")
    config = write_yaml(tmp_path / "cap.yaml",
                        with_line(text, "parties", "  output_dims: [1, 2]"))
    assert run_cli("train", "--config", config) == 1
    assert capsys.readouterr() == ("", "error: config.parties.input_dims: the TT "
                                       "operator would hold 2 x 1001000 = 2002000 "
                                       "entries, more than ttn.DENSE_CAP=1000000\n")


@pytest.mark.parametrize("kind", cli.MODEL_KINDS)
def test_width_mismatch_caught_at_load(tmp_path, kind):
    csv = make_csv(tmp_path / "d.csv")
    text = Path(csv_config(tmp_path, csv, model_kind=kind)).read_text()
    # parties hold 3 features each
    config = write_yaml(tmp_path / "w.yaml",
                        with_line(text, "parties", "  input_dims: [4]"))
    with pytest.raises(ConfigError, match="does not match"):
        load_config(config)


def test_inspect_checks_input_dims_against_party_widths(tmp_path, capsys):
    csv = make_csv(tmp_path / "d.csv")
    text = Path(csv_config(tmp_path, csv)).read_text()
    assert run_cli("train", "--config", write_yaml(tmp_path / "a.yaml", text)) == 0
    capsys.readouterr()
    # The dump's parties take 3 features each; this split gives 1 and 5.
    config = write_yaml(tmp_path / "b.yaml",
                        with_line(text, "dataset", "  widths: [1, 5]"))
    assert run_cli("inspect", "--config", config,
                   "--model", str(tmp_path / "run" / "model.txt"),
                   "--sample", "0") == 1
    assert capsys.readouterr() == ("", "error: config.parties.input_dims: product 3 "
                                       "does not match party 0's feature width 1\n")


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


# The breast-cancer topology: input_dims [2, 5], output_dims [2, 2], rank 2,
# vqc_blocks 1, num_classes 2.  Each case changes one field of every party.
DUMP_TOPOLOGY_CASES = {
    "input_dims": (([2, 3], [2, 2], 2, 1, 2), "input_dims [2, 3]", "[2, 5]"),
    "output_dims": (([2, 5], [4, 1], 2, 1, 2), "output_dims [4, 1]", "[2, 2]"),
    "rank": (([2, 5], [2, 2], 3, 1, 2), "TT ranks [3]", "2"),
    "vqc_blocks": (([2, 5], [2, 2], 2, 2, 2), "vqc_blocks 2", "1"),
    "num_classes": (([2, 5], [2, 2], 2, 1, 3), "num_classes 3", "2"),
}


@pytest.mark.parametrize("field", DUMP_TOPOLOGY_CASES)
def test_inspect_rejects_dump_topology_mismatch(tmp_path, capsys, monkeypatch,
                                                field):
    topology, found, expected = DUMP_TOPOLOGY_CASES[field]
    rng = np.random.default_rng(6)
    path = tmp_path / "model.txt"
    save_party_models(path, [PartyModel.random_init(*topology, rng)
                             for _ in range(3)])
    monkeypatch.chdir(ROOT)  # the bundled config names its CSV relative to here
    assert run_cli("inspect", "--config", "configs/breast_cancer.yaml",
                   "--model", str(path), "--sample", "0") == 1
    assert capsys.readouterr() == ("", f"error: {path}: party 0 has {found}, "
                                       f"config.parties.{field} is {expected}\n")


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
  num_classes: 2
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
    ("  classes: [3, 6, 1]",
     "config.parties.num_classes: 2 differs from the dataset's 3 classes"),
    ("", "config.parties.num_classes: 2 differs from the dataset's 10 classes"),
    ("  classes: 3", "config.dataset.classes: must be a non-empty list of "
     "distinct integers, got 3"),
    ("  classes: [3, 3]", "config.dataset.classes: must be a non-empty list "
     "of distinct integers, got [3, 3]"),
], ids=["three_classes", "all_ten_digits", "not_a_list", "duplicate"])
def test_idx_classes_and_num_classes_checked_at_load(tmp_path, capsys, dataset_lines,
                                                     message):
    config = idx_config(tmp_path, [3, 6, 1], dataset_lines=dataset_lines)
    assert run_cli("train", "--config", config) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


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


def test_out_flag_beats_environment_beats_config(tmp_path, monkeypatch):
    csv = make_csv(tmp_path / "d.csv")
    config = csv_config(tmp_path, csv)
    env_dir, flag_dir = tmp_path / "from_env", tmp_path / "from_flag"
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(env_dir))
    assert run_cli("train", "--config", config) == 0
    assert (env_dir / "trace.csv").exists()
    assert run_cli("train", "--config", config, "--out", str(flag_dir)) == 0
    assert (flag_dir / "trace.csv").exists()


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
    assert run_cli("inspect", "--config", config,
                   "--model", str(tmp_path / "run" / "model.txt"),
                   "--sample", "10000") == 1


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


def test_export_curves_rejects_mismatched_epochs(tmp_path):
    csv = make_csv(tmp_path / "d.csv")
    c2 = csv_config(tmp_path, csv, epochs=2, out_name="e2")
    c3 = csv_config(tmp_path, csv, epochs=3, out_name="e3")
    assert run_cli("train", "--config", c2) == 0
    assert run_cli("train", "--config", c3) == 0
    assert run_cli("export-curves", str(tmp_path / "e2" / "trace.csv"),
                   str(tmp_path / "e3" / "trace.csv"),
                   "--out-file", str(tmp_path / "c.csv")) == 1
