"""Dataset ingestion, vertical partitioning, and deterministic batching.

Supported inputs: the big-endian IDX image/label format (magic 0x00000803 /
0x00000801) and comma-delimited CSV with a header row.  The IDX image payload
is size-checked and mapped, not read: ``cli._idx_to_dataset`` chooses the rows
a run keeps on the labels, copies only those uint8 rows, and scales them to
[0, 1] once, there; tabular features are z-scored per column using
statistics from the training split only (variance floor 1e-12 for constant
columns).
"""
from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX file; the message names the file and the byte offset."""


@dataclass
class VerticalDataset:
    party_blocks: list[np.ndarray]  # each (N, d_k)
    labels: np.ndarray              # one-hot, (N, C)

    def __post_init__(self):
        n = self.labels.shape[0]
        for k, block in enumerate(self.party_blocks):
            if block.shape[0] != n:
                raise ValueError(f"party {k} block has {block.shape[0]} rows, "
                                 f"labels have {n}")

    @property
    def num_samples(self) -> int:
        return self.labels.shape[0]

    @property
    def num_parties(self) -> int:
        return len(self.party_blocks)

    @property
    def num_classes(self) -> int:
        return self.labels.shape[1]

    def sample(self, i: int) -> list[np.ndarray]:
        return [block[i] for block in self.party_blocks]

    def subset(self, indices) -> "VerticalDataset":
        indices = np.asarray(indices)
        return VerticalDataset([b[indices] for b in self.party_blocks],
                               self.labels[indices])


def _check_size(f, count: int, offset: int, what: str) -> None:
    # The size a header declares is checked against the file before any
    # read, so a huge claim allocates nothing.
    held = max(os.fstat(f.fileno()).st_size - offset, 0)
    if count > held:
        raise IdxFormatError(f"{f.name}: truncated {what} at byte offset {offset}: "
                             f"wanted {count} bytes, got {held}")


def _read_exact(f, count: int, offset: int, what: str) -> bytes:
    _check_size(f, count, offset, what)
    return f.read(count)


def load_idx_images(image_path, label_path) -> tuple[np.ndarray, np.ndarray]:
    """Raw uint8 pixels as a read-only (N, rows, cols) map of the image
    payload, and int64 labels.

    The whole declared payload is checked against the file size, but no
    pixel is read here: the caller chooses rows on the labels first, and only
    the kept rows are copied and scaled (``cli._idx_to_dataset``).
    """
    with open(image_path, "rb") as f:
        header = _read_exact(f, 16, 0, "image header")
        magic, n, rows, cols = struct.unpack(">IIII", header)
        if magic != IDX_IMAGES_MAGIC:
            raise IdxFormatError(f"{image_path}: bad image magic {magic:#010x} "
                                 f"at byte offset 0")
        _check_size(f, n * rows * cols, 16, "image payload")
        if n * rows * cols:
            images = np.memmap(f, dtype=np.uint8, mode="r", offset=16,
                               shape=(n, rows, cols))
        else:  # mmap cannot map 0 bytes
            images = np.zeros((n, rows, cols), dtype=np.uint8)
    with open(label_path, "rb") as f:
        header = _read_exact(f, 8, 0, "label header")
        magic, n_labels = struct.unpack(">II", header)
        if magic != IDX_LABELS_MAGIC:
            raise IdxFormatError(f"{label_path}: bad label magic {magic:#010x} "
                                 f"at byte offset 0")
        payload = _read_exact(f, n_labels, 8, "label payload")
    labels = np.frombuffer(payload, dtype=np.uint8).astype(np.int64)
    if n_labels != n:
        raise IdxFormatError(f"{label_path}: image/label count mismatch: "
                             f"{n} vs {n_labels}")
    return images, labels


def write_idx_images(image_path, label_path, images: np.ndarray,
                     labels: np.ndarray) -> None:
    """[0, 1] images quantized to the uint8 pixels load_idx_images returns,
    for synthetic fixtures and replay."""
    images = np.asarray(images)
    n, rows, cols = images.shape
    pixels = np.clip(np.round(images * 255.0), 0, 255).astype(np.uint8)
    with open(image_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(pixels.tobytes())
    with open(label_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())


def quadrant_partition(images: np.ndarray) -> list[np.ndarray]:
    """Four 14x14 blocks per 28x28 image: TL, TR, BL, BR, row-major flattened."""
    images = np.asarray(images)
    if images.shape[1:] != (28, 28):
        raise ValueError(f"expected (N, 28, 28) images, got {images.shape}")
    n = images.shape[0]
    return [
        images[:, :14, :14].reshape(n, 196),
        images[:, :14, 14:].reshape(n, 196),
        images[:, 14:, :14].reshape(n, 196),
        images[:, 14:, 14:].reshape(n, 196),
    ]


def load_tabular_csv(path, feature_columns: list[str], label_column: str
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Raw (unstandardized) (N, F) features and labels from cells reading 0 or 1.

    Standardization happens after the train/test split (`standardize`), so
    test rows never contaminate the statistics.
    """
    rows = []
    labels = []
    with open(path, newline="", errors="replace") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: missing header row")
        for col in feature_columns + [label_column]:
            if col not in header:
                raise ValueError(f"{path}: column {col!r} not in header")
        # As in csv.DictReader: a duplicated name reads its last column, a
        # short row reads None past its end, and blank lines are not rows.
        at = {name: i for i, name in enumerate(header)}
        feature_at = [at[col] for col in feature_columns]
        label_at = at[label_column]
        width = max(feature_at + [label_at]) + 1
        for row_idx, cells in enumerate(filter(None, reader), start=2):
            if len(cells) < width:
                cells += [None] * (width - len(cells))
            values = []
            for col, i in zip(feature_columns, feature_at):
                try:
                    values.append(float(cells[i]))
                except (TypeError, ValueError):
                    raise ValueError(
                        f"{path}: non-numeric cell at row {row_idx}, "
                        f"column {col!r}: {cells[i]!r}") from None
            raw_label = cells[label_at]
            try:
                labels.append({0.0: 0, 1.0: 1}[float(raw_label)])
            except (KeyError, TypeError, ValueError):
                raise ValueError(f"{path}: unknown label {raw_label!r} "
                                 f"at row {row_idx}") from None
            rows.append(values)
    features = np.array(rows, dtype=np.float64).reshape(-1, len(feature_columns))
    bad = np.argwhere(~np.isfinite(features))
    if len(bad):
        r, c = bad[0]  # row r of the array is file row r + 2, after the header
        raise ValueError(f"{path}: non-finite cell at row {r + 2}, "
                         f"column {feature_columns[c]!r}: {features[r, c]}")
    return features, np.array(labels, dtype=np.int64)


def standardize(train_features: np.ndarray, *other: np.ndarray
                ) -> tuple[np.ndarray, ...]:
    """Z-score all splits using the training split's column statistics."""
    mean = train_features.mean(axis=0)
    var = train_features.var(axis=0)
    std = np.sqrt(np.maximum(var, 1e-12))
    out = [(train_features - mean) / std]
    out.extend((x - mean) / std for x in other)
    return tuple(out)


def vertical_split(features: np.ndarray, widths: list[int]) -> list[np.ndarray]:
    """Contiguous column ranges, in file order, one per party."""
    if sum(widths) != features.shape[1]:
        raise ValueError(f"party widths {widths} do not sum to "
                         f"{features.shape[1]} columns")
    edges = np.cumsum([0] + list(widths))
    return [features[:, edges[k]:edges[k + 1]] for k in range(len(widths))]


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((len(labels), num_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def balanced_subsample(features: np.ndarray, labels: np.ndarray, rng
                       ) -> tuple[np.ndarray, np.ndarray]:
    """All minority samples plus an equal-size uniform draw of the majority."""
    labels = np.asarray(labels)
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("both classes must be non-empty")
    minority, majority = (pos, neg) if len(pos) <= len(neg) else (neg, pos)
    drawn = rng.choice(majority, size=len(minority), replace=False)
    keep = np.concatenate([minority, drawn])
    keep = keep[rng.permutation(len(keep))]
    return features[keep], labels[keep]


def train_test_split(dataset: VerticalDataset, test_fraction: float,
                     seed: int) -> tuple[VerticalDataset, VerticalDataset]:
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must be in (0, 1)")
    n = dataset.num_samples
    n_test = int(round(n * test_fraction))
    if n_test == 0 or n_test == n:
        raise ValueError("split leaves an empty train or test set")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5911]))
    perm = rng.permutation(n)
    return dataset.subset(perm[n_test:]), dataset.subset(perm[:n_test])


def batch_indices(num_samples: int, batch_size: int, seed: int, epoch: int):
    """Deterministic per-epoch shuffle; the last partial batch is kept."""
    if num_samples == 0:
        raise ValueError("empty split")
    rng = np.random.default_rng(np.random.SeedSequence([seed, epoch]))
    perm = rng.permutation(num_samples)
    for start in range(0, num_samples, batch_size):
        yield perm[start:start + batch_size]
