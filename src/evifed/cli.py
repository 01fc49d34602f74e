"""Command-line front end: train, verify, inspect, export-curves.

Experiments are described by a YAML config (schema below); every command is
deterministic given the config and seed, so rerunning reproduces outputs
byte for byte.  A bad config value, dataset file, model dump or training
trace ends a command with one ``error:`` line naming the file and the field
or line, and exit status 1; so does a training run whose mean loss or
parameters stop being finite, before it writes any output.  A refused
``train`` removes the empty output directory levels it created.
``CONFIG_SCHEMA`` holds every key's default and check, so a typo or a value
of the wrong type or range never trains with a silent default (a bool is no
number; write ``1.0e-8``, as PyYAML reads ``1e-8`` as a string).  Output
directory precedence: ``--out``, then the config's ``out_dir``.  Every
section, ``train`` included, is checked by that one table;
``train.TrainConfig`` holds the checked values as plain data.

Config schema (all keys lowercase; an optional key shows its default)::

    dataset:
      kind: idx | csv
      # kind: idx (uint8 pixels are scaled to [0, 1] once, by _idx_to_dataset,
      # after the class filter and the sample caps have chosen the rows)
      train_images: path     # IDX file of 28x28 images
      train_labels: path
      test_images: path
      test_labels: path
      classes: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]  # >= 2 distinct digits -> labels 0..C-1;
                                               # each one held by a kept train sample
      max_train_samples: 2000   # positive int; a seeded draw of that many
      max_test_samples: 500     # positive int
      # kind: csv
      path: file.csv
      feature_columns: [colA, colB, ...]  # distinct header names, not label_column
      label_column: target      # header name
      balance: false            # bool; balanced_subsample before splitting
      test_fraction: 0.2        # number in (0, 1); both splits non-empty
    model_kind: eviqvfl         # or one of baselines.BASELINE_KINDS
    parties:
      input_dims: [2, 7, 7, 2]  # TT input factorization; product d = a party's width:
                                # 196 for idx (a 14x14 quadrant); csv parties are
                                # consecutive runs of d feature_columns
      output_dims: [1, 2, 2, 1] # one per input factor; product n >= the class count
                                # (len(classes) for idx, 2 for csv),
                                # n <= qsim.MAX_QUBITS, n * d <= ttn.DENSE_CAP
      rank: 2                   # positive int
      vqc_blocks: 2             # positive int; a party's TT core entries plus its
                                # 3 * n * vqc_blocks angles <= ttn.DENSE_CAP
    train:
      learning_rate: 0.05       # finite number > 0
      batch_size: 64            # positive int
      epochs: 20                # positive int
      seed: 0                   # int >= 0; --seed overrides it
    out_dir: .                  # directory path
"""
from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import math
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np
import yaml

from . import baselines, data, evidence, model, qsim, train, verify
from .model import PartyModel
from .ttn import DENSE_CAP, TTLayerParams
from .verify import SUITES

MODEL_MAGIC = "evifed-model v1"

MODEL_KINDS = ("eviqvfl",) + baselines.BASELINE_KINDS


class ConfigError(ValueError):
    """Config validation failure; message carries the offending field path."""


# --- configuration ---------------------------------------------------------

def is_integer(value) -> bool:
    """An integer that is not a bool (config values come from YAML)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """A finite real number that is not a bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _list_of(item_ok):
    return lambda v: isinstance(v, list) and v != [] and all(map(item_ok, v))


# Every config key, as section -> key -> (default, predicate, message).  Keys
# are checked in table order, so a missing dataset file is named before the
# keys that read it.  A REQUIRED key has no default.
REQUIRED = object()
_POSITIVE_INT = (lambda v: is_integer(v) and v >= 1,
                 "must be a positive integer, got {!r}")
_POSITIVE_INTS = (_list_of(_POSITIVE_INT[0]),
                  "must be a non-empty list of positive integers, got {!r}")
_MAPPING = (lambda v: isinstance(v, dict), "must be a mapping")
_FILE = (lambda v: isinstance(v, str) and os.path.exists(v), "file not found: {}")
_TRAIN_CHECKS = {  # one per TrainConfig field; a field with none fails at import
    "learning_rate": (lambda v: is_finite_number(v) and v > 0,
                      "must be a finite number > 0, got {!r}"),
    "batch_size": _POSITIVE_INT,
    "epochs": _POSITIVE_INT,
    "seed": (lambda v: is_integer(v) and v >= 0, "must be an integer >= 0, got {!r}"),
}
CONFIG_SCHEMA = {
    "config": {  # ExperimentConfig's fields
        "model_kind": ("eviqvfl", lambda v: v in MODEL_KINDS, "unknown kind {!r}"),
        "dataset": (REQUIRED, *_MAPPING),
        "parties": (REQUIRED, *_MAPPING),
        "train": ({}, *_MAPPING),
        "out_dir": (".", lambda v: isinstance(v, str),
                    "must be a directory path, got {!r}"),
    },
    "dataset": {"kind": (REQUIRED, lambda v: v in ("idx", "csv"), "unknown kind {!r}")},
    "dataset.idx": {
        **{key: (REQUIRED, *_FILE) for key in ("train_images", "train_labels",
                                                "test_images", "test_labels")},
        "classes": (list(range(10)),
                    lambda v: _list_of(is_integer)(v) and len(set(v)) == len(v) >= 2,
                    "must be a list of at least two distinct integers, got {!r}"),
        "max_train_samples": (2000, *_POSITIVE_INT),
        "max_test_samples": (500, *_POSITIVE_INT),
    },
    "dataset.csv": {
        "path": (REQUIRED, *_FILE),
        "feature_columns": (REQUIRED, _list_of(lambda c: isinstance(c, str)),
                            "must be a non-empty list of column names, got {!r}"),
        "label_column": (REQUIRED, lambda v: isinstance(v, str),
                         "must be a column name, got {!r}"),
        "balance": (False, lambda v: type(v) is bool, "must be true or false, got {!r}"),
        "test_fraction": (0.2, lambda v: is_finite_number(v) and 0 < v < 1,
                          "must be a number in (0, 1), got {!r}"),
    },
    "parties": {
        "input_dims": (REQUIRED, *_POSITIVE_INTS),
        "output_dims": (REQUIRED, *_POSITIVE_INTS),
        "rank": (2, *_POSITIVE_INT),
        "vqc_blocks": (2, *_POSITIVE_INT),
    },
    "train": {f.name: (f.default, *_TRAIN_CHECKS[f.name])  # TrainConfig's defaults
              for f in dataclasses.fields(train.TrainConfig)},
}


@dataclass
class ExperimentConfig:
    dataset: dict
    model_kind: str
    parties: dict
    train: train.TrainConfig
    out_dir: str


def _walk(section: dict, path: str, *tables: str) -> None:
    """Check ``section`` key by key in table order; fill in absent defaults."""
    known = set()
    for table in tables:  # "dataset.{kind}" reads a key an earlier table checked
        rows = CONFIG_SCHEMA[table.format_map(section)]
        known.update(rows)
        for key, (default, ok, message) in rows.items():
            if key not in section:
                if default is REQUIRED:
                    raise ConfigError(f"{path}.{key}: required field missing")
                section[key] = copy.deepcopy(default)
            elif not ok(section[key]):
                raise ConfigError(f"{path}.{key}: {message.format(section[key])}")
    for key in section:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown field")


def _class_count(dataset: dict) -> int:
    """``len(classes)`` for IDX, 2 for CSV (a label is 0 or 1)."""
    return len(dataset["classes"]) if dataset["kind"] == "idx" else 2


def _party_count(cfg: ExperimentConfig) -> int:
    """Four image quadrants, or the CSV's feature columns in consecutive runs
    of the ``input_dims`` product (``load_config`` has checked it divides)."""
    if cfg.dataset["kind"] == "idx":
        return 4
    return len(cfg.dataset["feature_columns"]) // math.prod(cfg.parties["input_dims"])


def validate_party_topology(parties: dict, num_classes: int) -> None:
    """Check ``parties`` for a dataset of ``num_classes`` classes."""
    _walk(parties, "config.parties", "parties")
    modes, factors = len(parties["input_dims"]), len(parties["output_dims"])
    if factors != modes:
        raise ConfigError(f"config.parties.output_dims: has {factors} factors, "
                          f"input_dims has {modes}")
    n_qubits = math.prod(parties["output_dims"])
    if n_qubits < num_classes:
        raise ConfigError(f"config.parties.output_dims: product {n_qubits} is fewer "
                          f"qubits than the dataset's {num_classes} classes")
    if n_qubits > qsim.MAX_QUBITS:
        raise ConfigError(f"config.parties.output_dims: product {n_qubits} qubits "
                          f"exceeds qsim.MAX_QUBITS={qsim.MAX_QUBITS}")
    d = math.prod(parties["input_dims"])
    if d * n_qubits > DENSE_CAP:
        raise ConfigError(f"config.parties.input_dims: the TT operator would hold "
                          f"{n_qubits} x {d} = {n_qubits * d} entries, more than "
                          f"ttn.DENSE_CAP={DENSE_CAP}")
    # As TTLayerParams.random_init and PartyModel.random_init would allocate.
    ranks = [1] + [parties["rank"]] * (modes - 1) + [1]
    tt = sum(ranks[l] * i * o * ranks[l + 1] for l, (i, o) in
             enumerate(zip(parties["input_dims"], parties["output_dims"])))
    angles = 3 * n_qubits * parties["vqc_blocks"]
    if tt + angles > DENSE_CAP:
        field = "rank" if tt >= angles else "vqc_blocks"
        raise ConfigError(f"config.parties.{field}: a party would hold {tt} TT "
                          f"core entries and {angles} VQC angles, more than "
                          f"ttn.DENSE_CAP={DENSE_CAP} parameters")


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that refuses a key repeated in one mapping, where
    ``safe_load`` would keep the last value and drop the earlier silently."""

    def construct_mapping(self, node, deep=False):
        seen = []  # a list, as an unhashable key is the base class's error
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"duplicate key {key!r}", key_node.start_mark)
            seen.append(key)
        return super().construct_mapping(node, deep=deep)


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        try:
            raw = yaml.load(f, Loader=_UniqueKeyLoader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: "
                              f"{' '.join(str(exc).split())}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    _walk(raw, "config", "config")
    dataset, parties = raw["dataset"], raw["parties"]
    _walk(dataset, "config.dataset", "dataset", "dataset.{kind}")
    if dataset["kind"] == "csv":
        columns = dataset["feature_columns"]
        if dataset["label_column"] in columns:
            raise ConfigError(f"config.dataset.feature_columns: lists the "
                              f"label_column {dataset['label_column']!r}")
        for column in columns:
            if columns.count(column) > 1:
                raise ConfigError(f"config.dataset.feature_columns: {column!r} "
                                  "is listed twice")
    validate_party_topology(parties, _class_count(dataset))
    d = math.prod(parties["input_dims"])
    if dataset["kind"] == "idx" and d != 196:
        raise ConfigError(f"config.parties.input_dims: product {d} is not 196, the "
                          "pixels of a party's 14x14 image quadrant")
    if dataset["kind"] == "csv" and len(columns) % d:
        raise ConfigError(f"config.parties.input_dims: product {d} does not divide "
                          f"the {len(columns)} feature_columns into parties")
    _walk(raw["train"], "config.train", "train")
    return ExperimentConfig(**{**raw, "train": train.TrainConfig(**raw["train"])})


def _load_seeded(args) -> ExperimentConfig:
    """The config at ``args.config``, its training seed replaced by ``--seed``."""
    cfg = load_config(args.config)
    if args.seed is not None:
        if args.seed < 0:  # argparse has made it an int
            raise ConfigError(f"--seed {args.seed}: seed must be >= 0")
        cfg.train.seed = args.seed
    return cfg


# --- dataset construction --------------------------------------------------

def _idx_to_dataset(images: np.ndarray, labels: np.ndarray, classes: list[int],
                    max_n: int, seed: int, salt: int) -> data.VerticalDataset:
    """The rows whose label is in ``classes``, at most ``max_n`` of them in a
    draw seeded by (seed, salt), with labels 0..C-1 in ``classes`` order.

    Rows are chosen on the labels, so only the kept uint8 rows are read from
    ``images`` (a map of the file); each uint8 quadrant is converted once:
    this is the one place pixels are scaled to [0, 1].
    """
    rows = np.flatnonzero(np.isin(labels, classes))
    if len(rows) > max_n:
        rng = np.random.default_rng(np.random.SeedSequence([seed, salt]))
        rows = rows[rng.permutation(len(rows))[:max_n]]
    remap = np.zeros(256, dtype=np.int64)  # IDX labels are uint8,
    for i, c in enumerate(classes):        # so no row holds another class
        if 0 <= c < 256:
            remap[c] = i
    blocks = [np.divide(block, 255.0)
              for block in data.quadrant_partition(images[rows])]
    return data.VerticalDataset(blocks, data.one_hot(remap[labels[rows]],
                                                     len(classes)))


def build_datasets(cfg: ExperimentConfig, seed: int
                   ) -> tuple[data.VerticalDataset, data.VerticalDataset]:
    ds = cfg.dataset
    if ds["kind"] == "idx":
        classes = list(ds["classes"])
        splits = []
        for name, salt in (("train", 1), ("test", 2)):
            path = ds[f"{name}_images"]
            images, labels = data.load_idx_images(path, ds[f"{name}_labels"])
            if images.shape[1:] != (28, 28):
                raise ConfigError(f"config.dataset.{name}_images: {path} holds "
                                  f"{images.shape[1]}x{images.shape[2]} images; "
                                  "the quadrant split needs 28x28")
            split = _idx_to_dataset(images, labels, classes,
                                    ds[f"max_{name}_samples"], seed, salt)
            if split.num_samples == 0:
                raise ConfigError(f"config.dataset.classes: no {name} sample "
                                  f"has a label in {classes}")
            present = split.labels.any(axis=0)
            if name == "train" and not present.all():
                raise ConfigError(f"config.dataset.classes: no train sample has "
                                  f"label {classes[int(np.argmin(present))]}")
            splits.append(split)
        return splits[0], splits[1]

    features, labels = data.load_tabular_csv(
        ds["path"], list(ds["feature_columns"]), ds["label_column"])
    if len(labels) == 0:
        raise ConfigError(f"config.dataset.path: {ds['path']} has no data rows")
    counts = np.bincount(labels, minlength=2)
    if not counts.all():
        raise ConfigError(f"config.dataset.label_column: every row of {ds['path']} "
                          f"has class {int(np.argmax(counts))}; training needs "
                          "classes 0 and 1")
    if ds["balance"]:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        features, labels = data.balanced_subsample(features, labels, rng)
    raw = data.VerticalDataset([features], data.one_hot(labels, 2))
    try:
        train_raw, test_raw = data.train_test_split(raw, ds["test_fraction"], seed)
    except ValueError:  # the schema has checked the fraction's range
        raise ConfigError(f"config.dataset.test_fraction: {ds['test_fraction']} of "
                          f"{len(labels)} rows leaves an empty train or test "
                          "split") from None
    train_feat, test_feat = data.standardize(train_raw.party_blocks[0],
                                             test_raw.party_blocks[0])
    parties = _party_count(cfg)
    return (data.VerticalDataset(np.hsplit(train_feat, parties), train_raw.labels),
            data.VerticalDataset(np.hsplit(test_feat, parties), test_raw.labels))


# --- model construction ----------------------------------------------------

def _random_party(cfg: ExperimentConfig, rng) -> PartyModel:
    p = cfg.parties
    return PartyModel.random_init(list(p["input_dims"]), list(p["output_dims"]),
                                  p["rank"], p["vqc_blocks"],
                                  _class_count(cfg.dataset), rng)


def build_party_models(cfg: ExperimentConfig, rng) -> list[PartyModel]:
    """One random party per feature block."""
    return [_random_party(cfg, rng) for _ in range(_party_count(cfg))]


def build_trainable(cfg: ExperimentConfig, rng):
    """The configured model: a PartyModel list for eviqvfl (train.train_run
    wraps it as EvidentialTrainable), else a baseline; the schema has checked
    ``model_kind``."""
    kind = cfg.model_kind
    if kind == "eviqvfl":
        return build_party_models(cfg, rng)
    if kind == "measure_then_average":
        return baselines.MeasureAverageModel(build_party_models(cfg, rng))
    if kind == "measure_then_vqc":
        return baselines.MeasureVqcModel.random_init(build_party_models(cfg, rng), rng)
    # A quantum party, drawn only for its size, sets the classical budget.
    budget = _random_party(cfg, rng).param_count()
    d, num_classes = math.prod(cfg.parties["input_dims"]), _class_count(cfg.dataset)
    width = baselines.mlp_width_for_budget(d, num_classes, budget)
    parties = [baselines.MLPParty.random_init(d, width, num_classes, rng)
               for _ in range(_party_count(cfg))]
    if kind == "classical_average":
        return baselines.ClassicalAverageModel(parties)
    return baselines.ClassicalFuseModel.random_init(parties, num_classes, rng)


# --- model serialization ---------------------------------------------------

def save_party_models(path, models: list[PartyModel]) -> None:
    """Flat text dump: shape headers + full-precision values, one array per line."""
    with open(path, "w") as f:
        f.write(f"{MODEL_MAGIC}\n")
        m0 = models[0]
        f.write(f"parties {len(models)} num_classes {m0.num_classes} "
                f"blocks {m0.blocks}\n")
        for k, m in enumerate(models):
            f.write(f"party {k} input_dims {' '.join(map(str, m.ttn.input_dims))} "
                    f"output_dims {' '.join(map(str, m.ttn.output_dims))}\n")
            for l, core in enumerate(m.ttn.cores):
                f.write(f"array party{k}.core{l} shape "
                        f"{' '.join(map(str, core.shape))}\n")
                f.write(" ".join(repr(float(v)) for v in core.ravel()) + "\n")
            f.write(f"array party{k}.vqc shape "
                    f"{' '.join(map(str, m.vqc_angles.shape))}\n")
            f.write(" ".join(repr(float(v)) for v in m.vqc_angles.ravel()) + "\n")


def load_party_models(path) -> list[PartyModel]:
    """Inverse of save_party_models; a malformed dump raises ValueError
    naming the file and the 1-based line at fault."""
    with open(path, errors="replace") as f:  # a stray byte fails parsing at its line
        lines = f.read().splitlines()
    if not lines or lines[0] != MODEL_MAGIC:
        raise ValueError(f"{path}: not a model dump (missing {MODEL_MAGIC!r} header)")
    pos = 1  # line number of the line last read

    def next_fields() -> list[str]:
        nonlocal pos
        pos += 1
        return lines[pos - 1].split()

    def read_array(expect_name: str) -> np.ndarray:
        fields = next_fields()
        if fields[:3] != ["array", expect_name, "shape"]:
            raise ValueError(f"expected array {expect_name}")
        shape = tuple(int(v) for v in fields[3:])
        values = np.array([float(v) for v in next_fields()])
        if values.size != math.prod(shape):
            raise ValueError(f"{values.size} values do not fill shape {shape}")
        if not np.isfinite(values).all():
            raise ValueError(f"non-finite value {values[~np.isfinite(values)][0]}")
        return values.reshape(shape)

    models = []
    try:
        head = next_fields()
        if head[::2] != ["parties", "num_classes", "blocks"]:
            raise ValueError("expected 'parties N num_classes C blocks B'")
        num_parties, num_classes, blocks = int(head[1]), int(head[3]), int(head[5])
        if num_parties < 1 or num_classes < 2 or blocks < 1:
            raise ValueError("need parties >= 1, num_classes >= 2 and blocks >= 1")
        for k in range(num_parties):
            fields = next_fields()
            # At least one input dim: a party without a TT core cannot run.
            if (fields[:3] != ["party", str(k), "input_dims"]
                    or "output_dims" not in fields[4:]):
                raise ValueError(f"expected 'party {k} input_dims ... output_dims ...'")
            split_at = fields.index("output_dims")
            input_dims = [int(v) for v in fields[3:split_at]]
            output_dims = [int(v) for v in fields[split_at + 1:]]
            cores = [read_array(f"party{k}.core{l}") for l in range(len(input_dims))]
            vqc = read_array(f"party{k}.vqc")
            m = PartyModel(TTLayerParams(cores), vqc, num_classes)
            found = (m.ttn.input_dims, m.ttn.output_dims, m.blocks)
            if found != (input_dims, output_dims, blocks):
                raise ValueError(f"party {k}'s arrays have input_dims, output_dims "
                                 f"and blocks {found}, its lines say "
                                 f"{(input_dims, output_dims, blocks)}")
            models.append(m)
        if pos < len(lines):
            pos += 1
            raise ValueError(f"unexpected line after party {num_parties - 1}")
    except IndexError:
        what = "file ends early" if pos > len(lines) else "missing field"
        raise ValueError(f"{path}:{pos}: {what}") from None
    except ValueError as exc:
        raise ValueError(f"{path}:{pos}: {exc}") from None
    return models


def check_dump_topology(path, models: list[PartyModel], parties: dict) -> None:
    """Raise ValueError naming the dump and the first party whose TT dims,
    TT ranks or VQC blocks differ from ``config.parties``."""
    for k, m in enumerate(models):
        found = {"input_dims": m.ttn.input_dims, "output_dims": m.ttn.output_dims,
                 "vqc_blocks": m.blocks}
        for key, value in found.items():
            if value != parties[key]:
                raise ValueError(f"{path}: party {k} has {key} {value}, "
                                 f"config.parties.{key} is {parties[key]}")
        # Every inner TT rank is the configured rank; one mode has none.
        ranks = [core.shape[0] for core in m.ttn.cores[1:]]
        if any(r != parties["rank"] for r in ranks):
            raise ValueError(f"{path}: party {k} has TT ranks {ranks}, "
                             f"config.parties.rank is {parties['rank']}")


# --- commands --------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = _load_seeded(args)
    out_dir = args.out or cfg.out_dir
    level, created = os.path.abspath(out_dir), []  # the levels made here
    while not os.path.exists(level):
        level, created = os.path.dirname(level), created + [level]
    os.makedirs(out_dir, exist_ok=True)  # first: an unwritable path fails early
    try:
        return _train_into(cfg, out_dir)
    except BaseException:
        for level in created:  # deepest first; a level holding a file stays
            with contextlib.suppress(OSError):
                os.rmdir(level)
        raise


def _train_into(cfg: ExperimentConfig, out_dir: str) -> int:
    train_set, test_set = build_datasets(cfg, cfg.train.seed)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.train.seed, 0]))
    trainable = build_trainable(cfg, rng)
    try:
        trained, trace = train.train_run(trainable, train_set, cfg.train, test_set)
    except ValueError as exc:  # such as divergence; no output file is written
        raise ValueError(f"model_kind {cfg.model_kind}: {exc}") from None

    trace.export(os.path.join(out_dir, "trace.csv"))
    if cfg.model_kind == "eviqvfl":
        save_party_models(os.path.join(out_dir, "model.txt"), trained.models)
    counts = trained.party_param_counts()
    final = trace.records[-1]
    with open(os.path.join(out_dir, "summary.txt"), "w") as f:
        f.write(f"model_kind {cfg.model_kind}\n")
        f.write(f"seed {cfg.train.seed}\n")
        f.write(f"final_loss {final.loss!r}\n")
        f.write(f"final_train_acc {final.train_acc!r}\n")
        f.write(f"final_test_acc {final.test_acc!r}\n")
        f.write(f"params_per_party {' '.join(map(str, counts))}\n")
    print(f"trained {cfg.model_kind}: loss {final.loss:.4f}, "
          f"test acc {final.test_acc:.4f}, params/party {counts}")
    return 0


def cmd_verify(args) -> int:
    results = verify.run_suite(args.suite)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: worst deviation "
              f"{r.worst:.3e} (tolerance {r.tolerance:.0e})")
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} properties passed")
    return 1 if failed else 0


def cmd_inspect(args) -> int:
    cfg = _load_seeded(args)
    models = load_party_models(args.model)
    _, test_set = build_datasets(cfg, cfg.train.seed)
    if len(models) != test_set.num_parties:
        raise ValueError(f"{args.model}: dump holds {len(models)} parties, the "
                         f"config's dataset has {test_set.num_parties}")
    if models[0].num_classes != test_set.num_classes:
        raise ValueError(f"{args.model}: dump holds {models[0].num_classes} "
                         f"classes, the config's dataset has {test_set.num_classes}")
    check_dump_topology(args.model, models, cfg.parties)
    if not 0 <= args.sample < test_set.num_samples:
        raise ValueError(f"--sample {args.sample}: out of range (the test set "
                         f"has {test_set.num_samples} samples)")
    sample = test_set.sample(args.sample)
    num_classes = models[0].num_classes

    states = [model.party_forward(m, x)[0] for m, x in zip(models, sample)]
    bbas = []
    for k, state in enumerate(states):
        dist = qsim.marginal_probabilities(state, range(num_classes))
        bba = evidence.decode_distribution(dist)
        bbas.append(bba)
        print(f"party {k} output BBA (mass per subset bitmask):")
        for subset in range(1 << num_classes):
            print(f"  m[{subset:0{num_classes}b}] = {bba.masses[subset]:.6f}")
        print(f"  sum = {bba.masses.sum():.9f}")
    combined = evidence.ccr_combine(bbas)
    print("combined BBA:")
    for subset in range(1 << num_classes):
        # The combination is unnormalized, so m(empty set) is the conflict.
        label = "  (conflict)" if subset == 0 else ""
        print(f"  m[{subset:0{num_classes}b}] = {combined.masses[subset]:.6f}{label}")

    joint = model.fuse_joint_circuit(states, num_classes)
    factorized = model.fuse_factorized(
        [model.party_marginals(s, num_classes) for s in states])
    print("per-class plausibilities:")
    for c in range(num_classes):
        print(f"  class {c}: joint {joint[c]:.9f}  factorized {factorized[c]:.9f}")
    pred = model.predict(factorized)
    true_class = int(np.argmax(test_set.labels[args.sample]))
    print(f"prediction: class {pred.predicted_class} "
          f"(probabilities {np.array2string(pred.probabilities, precision=6)}); "
          f"true class {true_class}")
    return 0


def cmd_export_curves(args) -> int:
    traces = [train.TrainTrace.load(p) for p in args.traces]
    lengths = [len(t.records) for t in traces]
    if len(set(lengths)) != 1:
        raise ValueError("traces disagree on epoch count: " + ", ".join(
            f"{p} has {n}" for p, n in zip(args.traces, lengths)))
    n_runs = len(traces)
    with open(args.out_file, "w") as f:
        f.write("epoch,mean_loss,mean_acc,n_runs\n")
        for i in range(lengths[0]):
            losses = [t.records[i].loss for t in traces]
            accs = [t.records[i].test_acc for t in traces]
            f.write(f"{traces[0].records[i].epoch},{float(np.mean(losses))!r},"
                    f"{float(np.mean(accs))!r},{n_runs}\n")
    print(f"wrote {args.out_file} ({n_runs} runs merged)")
    return 0


# --- entry point -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evifed",
        description="Evidential quantum vertical federated learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training experiment")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, help="override the config's training seed")
    p_train.add_argument("--out", default=None, help="output directory")
    p_train.set_defaults(func=cmd_train)

    p_verify = sub.add_parser("verify", help="run the property suites")
    p_verify.add_argument("--suite", default="all",
                          choices=list(SUITES) + ["all"])
    p_verify.set_defaults(func=cmd_verify)

    p_inspect = sub.add_parser("inspect",
                               help="audit the evidential pipeline on one sample")
    p_inspect.add_argument("--config", required=True)
    p_inspect.add_argument("--model", required=True, help="model dump path")
    p_inspect.add_argument("--sample", type=int, required=True,
                           help="test-set sample index")
    p_inspect.add_argument("--seed", type=int,
                           help="the seed the model was trained with: it draws "
                                "the test split, so another seed audits a "
                                "sample of a different split")
    p_inspect.set_defaults(func=cmd_inspect)

    p_export = sub.add_parser("export-curves",
                              help="merge trace files into a plot-ready table")
    p_export.add_argument("traces", nargs="+", help="trace csv paths")
    p_export.add_argument("--out-file", required=True)
    p_export.set_defaults(func=cmd_export_curves)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
