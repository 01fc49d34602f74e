"""Data loading: IDX files, quadrant partition, CSV, splits, batching."""
import struct
import tracemalloc

import numpy as np
import pytest

from evifed import cli, data
from evifed.cli import ConfigError
from evifed.data import IdxFormatError, VerticalDataset
from oracle import reassemble_quadrants


def synthetic_images(rng, n=12):
    return rng.uniform(0, 1, size=(n, 28, 28)), rng.integers(0, 10, size=n)


# --- IDX format ------------------------------------------------------------

def test_idx_roundtrip_reproduces_pixels(tmp_path):
    rng = np.random.default_rng(0)
    images, labels = synthetic_images(rng)
    img_path, lab_path = tmp_path / "img.idx", tmp_path / "lab.idx"
    data.write_idx_images(img_path, lab_path, images, labels)
    back_images, back_labels = data.load_idx_images(img_path, lab_path)
    # write quantizes to uint8, and load returns those pixels unscaled
    assert back_images.dtype == np.uint8
    assert not back_images.flags.writeable
    assert np.array_equal(back_images, np.round(images * 255))
    assert np.array_equal(back_labels, labels)


def test_idx_header_parses_dimensions(tmp_path):
    img_path, lab_path = tmp_path / "img.idx", tmp_path / "lab.idx"
    data.write_idx_images(img_path, lab_path, np.zeros((3, 28, 28)), np.zeros(3))
    with open(img_path, "rb") as f:
        magic, n, rows, cols = struct.unpack(">IIII", f.read(16))
    assert (magic, n, rows, cols) == (0x00000803, 3, 28, 28)
    images, labels = data.load_idx_images(img_path, lab_path)
    assert images.shape == (3, 28, 28)


def test_idx_bad_magic_reports_offset(tmp_path):
    img_path, lab_path = tmp_path / "img.idx", tmp_path / "lab.idx"
    data.write_idx_images(img_path, lab_path, np.zeros((1, 28, 28)), np.zeros(1))
    raw = bytearray(img_path.read_bytes())
    raw[3] = 0x99
    img_path.write_bytes(bytes(raw))
    with pytest.raises(IdxFormatError, match="magic"):
        data.load_idx_images(img_path, lab_path)


def test_idx_truncated_payload_raises(tmp_path):
    img_path, lab_path = tmp_path / "img.idx", tmp_path / "lab.idx"
    data.write_idx_images(img_path, lab_path, np.zeros((2, 28, 28)), np.zeros(2))
    img_path.write_bytes(img_path.read_bytes()[:-10])
    with pytest.raises(IdxFormatError, match="truncated"):
        data.load_idx_images(img_path, lab_path)


def idx_files_and_config(tmp_path, labels):
    """IDX train and test files of ``labels`` and a config keeping digits 3, 6."""
    img_path, lab_path = tmp_path / "img.idx", tmp_path / "lab.idx"
    data.write_idx_images(img_path, lab_path, np.zeros((len(labels), 28, 28)),
                          np.array(labels))
    config = tmp_path / "idx.yaml"
    config.write_text(f"""
dataset:
  kind: idx
  train_images: {img_path}
  train_labels: {lab_path}
  test_images: {img_path}
  test_labels: {lab_path}
  classes: [3, 6]
parties:
  input_dims: [2, 7, 7, 2]
  output_dims: [1, 2, 2, 1]
""")
    return img_path, lab_path, cli.load_config(str(config))


def test_idx_truncation_in_a_row_not_kept_still_fails(tmp_path):
    # The last row is a 1, which the config drops; the size check covers it.
    img_path, lab_path, cfg = idx_files_and_config(tmp_path, [3, 6, 3, 1])
    img_path.write_bytes(img_path.read_bytes()[:-10])
    message = (f"{img_path}: truncated image payload at byte offset 16: "
               f"wanted {4 * 784} bytes, got {4 * 784 - 10}")
    with pytest.raises(IdxFormatError) as err:
        data.load_idx_images(img_path, lab_path)
    assert str(err.value) == message
    with pytest.raises(IdxFormatError) as err:
        cli.build_datasets(cfg, seed=0)
    assert str(err.value) == message


def test_idx_with_no_images_loads_empty_and_keeps_no_sample(tmp_path):
    img_path, lab_path, cfg = idx_files_and_config(tmp_path, [])
    images, labels = data.load_idx_images(img_path, lab_path)
    assert images.shape == (0, 28, 28) and images.dtype == np.uint8
    assert labels.shape == (0,)
    with pytest.raises(ConfigError, match=r"^config\.dataset\.classes: no train "
                                          r"sample has a label in \[3, 6\]$"):
        cli.build_datasets(cfg, seed=0)


@pytest.mark.parametrize("which", ["images", "labels"])
def test_idx_declared_size_past_end_of_file_reads_nothing(tmp_path, which):
    # A 32-byte file whose header declares far more than it holds: the check
    # is made against the file size, before any payload buffer exists.
    img_path, lab_path = tmp_path / "img.idx", tmp_path / "lab.idx"
    data.write_idx_images(img_path, lab_path, np.zeros((1, 28, 28)), np.zeros(1))
    if which == "images":
        img_path.write_bytes(struct.pack(">IIII", data.IDX_IMAGES_MAGIC, 0xFFFFFFFF,
                                         0xFFFFFFFF, 0xFFFFFFFF) + bytes(16))
        offset = 16
    else:
        lab_path.write_bytes(struct.pack(">II", data.IDX_LABELS_MAGIC, 1 << 26)
                             + bytes(24))
        offset = 8
    tracemalloc.start()
    try:
        with pytest.raises(IdxFormatError, match=f"at byte offset {offset}:"):
            data.load_idx_images(img_path, lab_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# --- quadrant partition ----------------------------------------------------

def test_constant_image_gives_constant_blocks():
    blocks = data.quadrant_partition(np.full((2, 28, 28), 0.25))
    assert len(blocks) == 4
    for b in blocks:
        assert b.shape == (2, 196)
        assert np.all(b == 0.25)


def test_corner_pixel_lands_in_first_party_block():
    images = np.zeros((1, 28, 28))
    images[0, 0, 0] = 1.0
    blocks = data.quadrant_partition(images)
    assert blocks[0][0, 0] == 1.0
    for b in blocks[1:]:
        assert np.all(b == 0.0)


def test_partition_then_reassemble_is_identity():
    rng = np.random.default_rng(1)
    images, _ = synthetic_images(rng)
    back = reassemble_quadrants(data.quadrant_partition(images))
    assert np.array_equal(back, images)


def test_partition_rejects_wrong_shape():
    with pytest.raises(ValueError):
        data.quadrant_partition(np.zeros((2, 14, 14)))


# --- CSV loading -----------------------------------------------------------

def write_csv(path, header, rows):
    path.write_text("\n".join([",".join(header)]
                              + [",".join(map(str, r)) for r in rows]) + "\n")


def test_csv_basic_load(tmp_path):
    p = tmp_path / "toy.csv"
    write_csv(p, ["a", "b", "y"], [[1.0, 2.0, 0], [3.0, 4.0, 1]])
    feats, labels = data.load_tabular_csv(p, ["a", "b"], "y")
    assert np.array_equal(feats, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(labels, [0, 1])


def test_csv_non_numeric_cell_reports_row_and_column(tmp_path):
    p = tmp_path / "toy.csv"
    write_csv(p, ["a", "y"], [[1.0, 0], ["oops", 1]])
    with pytest.raises(ValueError, match=r"row 3.*'a'"):
        data.load_tabular_csv(p, ["a"], "y")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_csv_non_finite_cell_reports_row_and_column(tmp_path, cell):
    p = tmp_path / "toy.csv"
    write_csv(p, ["a", "b", "y"], [[1.0, 2.0, 0], [3.0, cell, 1]])
    with pytest.raises(ValueError, match="non-finite cell at row 3, column 'b'"):
        data.load_tabular_csv(p, ["a", "b"], "y")


@pytest.mark.parametrize("cell", ["1.5", "nan", "abc", ""])
def test_csv_label_without_map_must_be_exactly_0_or_1(tmp_path, cell):
    p = tmp_path / "toy.csv"
    write_csv(p, ["a", "y"], [[1.0, "1.0"], [2.0, cell]])
    with pytest.raises(ValueError, match=rf"toy.csv: unknown label '{cell}' at row 3$"):
        data.load_tabular_csv(p, ["a"], "y")


def test_csv_header_only_gives_no_rows_of_every_column(tmp_path):
    # A (0,) array made the party split raise IndexError.
    p = tmp_path / "toy.csv"
    write_csv(p, ["a", "b", "y"], [])
    feats, labels = data.load_tabular_csv(p, ["a", "b"], "y")
    assert feats.shape == (0, 2) and feats.dtype == np.float64
    assert labels.shape == (0,)
    assert [b.shape for b in np.hsplit(feats, 2)] == [(0, 1), (0, 1)]


# --- standardization -------------------------------------------------------

def test_constant_column_standardizes_to_zero():
    train = np.column_stack([np.full(5, 7.0), np.arange(5.0)])
    out, = data.standardize(train)
    assert np.allclose(out[:, 0], 0.0)


def test_two_point_column_standardizes_to_unit():
    out, = data.standardize(np.array([[0.0], [2.0]]))
    assert np.allclose(out.ravel(), [-1.0, 1.0])


def test_test_split_uses_train_statistics():
    rng = np.random.default_rng(2)
    train = rng.normal(loc=3.0, scale=2.0, size=(50, 4))
    test = rng.normal(size=(20, 4))
    train_out, test_out = data.standardize(train, test)
    mean, std = train.mean(axis=0), train.std(axis=0)
    assert np.allclose(test_out, (test - mean) / std, atol=1e-10)


# --- balanced subsampling --------------------------------------------------

def test_balanced_input_is_permuted_not_reduced():
    rng = np.random.default_rng(4)
    feats = np.arange(20, dtype=float).reshape(10, 2)
    labels = np.array([0, 1] * 5)
    sub_feats, sub_labels = data.balanced_subsample(feats, labels, rng)
    assert sorted(sub_feats[:, 0]) == sorted(feats[:, 0])


def test_subsample_class_counts_equal():
    rng = np.random.default_rng(5)
    labels = np.array([0] * 480 + [1] * 20)
    feats = np.arange(500, dtype=float).reshape(500, 1)
    _, sub_labels = data.balanced_subsample(feats, labels, rng)
    assert (sub_labels == 0).sum() == (sub_labels == 1).sum() == 20


def test_subsample_rejects_single_class():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        data.balanced_subsample(np.zeros((4, 1)), np.zeros(4), rng)


# --- splitting and batching ------------------------------------------------

def make_dataset(n=10, width=4, parties=2):
    rng = np.random.default_rng(7)
    blocks = [rng.normal(size=(n, width)) for _ in range(parties)]
    labels = data.one_hot(rng.integers(0, 2, size=n), 2)
    return VerticalDataset(blocks, labels)


def test_split_sizes():
    train, test = data.train_test_split(make_dataset(10), 0.2, seed=0)
    assert train.num_samples == 8
    assert test.num_samples == 2


def test_split_is_disjoint_and_exhaustive():
    ds = make_dataset(30)
    train, test = data.train_test_split(ds, 0.25, seed=1)
    train_rows = {tuple(train.party_blocks[0][i]) for i in range(train.num_samples)}
    test_rows = {tuple(test.party_blocks[0][i]) for i in range(test.num_samples)}
    assert not train_rows & test_rows
    assert len(train_rows | test_rows) == 30


def test_equal_seeds_give_equal_batches():
    a = [list(b) for b in data.batch_indices(20, 8, seed=5, epoch=2)]
    b = [list(b) for b in data.batch_indices(20, 8, seed=5, epoch=2)]
    assert a == b


def test_batches_cover_each_sample_exactly_once():
    seen = np.concatenate(list(data.batch_indices(23, 8, seed=4, epoch=0)))
    assert sorted(seen) == list(range(23))
    assert len(list(data.batch_indices(23, 8, seed=4, epoch=0))) == 3  # 8+8+7


def test_epochs_reshuffle():
    e0 = np.concatenate(list(data.batch_indices(50, 16, seed=9, epoch=0)))
    e1 = np.concatenate(list(data.batch_indices(50, 16, seed=9, epoch=1)))
    assert not np.array_equal(e0, e1)


def test_dataset_validates_row_counts():
    with pytest.raises(ValueError):
        VerticalDataset([np.zeros((3, 2)), np.zeros((4, 2))],
                        data.one_hot(np.zeros(3, dtype=int), 2))


def test_one_hot_encoding():
    out = data.one_hot(np.array([0, 2, 1]), 3)
    assert np.array_equal(out, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
