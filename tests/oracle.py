"""Reference constructions for the tests, kept out of the program.

Each helper computes something the program computes another way, so a test
can compare two independent constructions:

- the TT layer as a reshape chain over the input (forward) and as per-core
  environments contracted with every sample (backward), where the program
  contracts the cores into one operator;
- the conjunctive combination rule by enumerating every K-tuple of focal
  sets, where the program folds pairwise;
- the quadrant split undone, and the teleported register as a relabeling
  (the protocol is the identity channel);
- the IDX set-up converting every image to float64 before the class filter
  and the sample cap, where the program chooses rows on the labels first;
- the CSV parser through ``csv.DictReader``, where the program reads column
  positions from a plain ``csv.reader``;
- a one-block party circuit's class marginals as a product of cosines, where
  the program simulates the statevector.
"""
import csv
import itertools

import numpy as np

from evifed import data, evidence, qsim
from evifed.qsim import Statevector
from evifed.ttn import TTLayerParams


def ttn_forward_chain(params: TTLayerParams, x: np.ndarray) -> np.ndarray:
    """The layer on (d,) or (B, d): the input contracted one core at a time."""
    x = np.asarray(x, dtype=np.float64)
    # t carries (sample, left bond, remaining input modes flattened, produced
    # output modes)
    t = x.reshape(-1, 1, params.in_size, 1)
    for core in params.cores:
        r_prev, p, q, r_next = core.shape
        t = t.reshape(t.shape[0], r_prev, p, -1, t.shape[-1])
        t = np.einsum("rpqs,brpxy->bsxyq", core, t)
        t = t.reshape(t.shape[0], r_next, t.shape[2], -1)
    return t.reshape(x.shape[:-1] + (params.out_size,))


def _partial_dense(cores) -> np.ndarray:
    """Contract a core chain into (r_left, prod Q, prod P, r_right)."""
    r_left = cores[0].shape[0] if cores else 1
    env = np.eye(r_left).reshape(r_left, 1, 1, r_left)
    for core in cores:
        env = np.einsum("aQPb,bpqc->aQqPpc", env, core)
        a, Q, q, P, p, c = env.shape
        env = env.reshape(a, Q * q, P * p, c)
    return env


def ttn_backward_per_core(params: TTLayerParams, x: np.ndarray,
                          upstream: np.ndarray) -> list[np.ndarray]:
    """dL/dcore_l summed over the rows: each core's two environments built
    from scratch, then contracted with every sample."""
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    b = upstream.size // params.out_size
    core_grads = []
    for l in range(len(params.cores)):
        left = _partial_dense(params.cores[:l])[0]      # (Qleft, Pleft, r_{l-1})
        right = _partial_dense(params.cores[l + 1:])[..., 0]  # (r_l, Qright, Pright)
        x4 = x.reshape(b, left.shape[1], params.input_dims[l], -1)
        g4 = upstream.reshape(b, left.shape[0], params.output_dims[l], -1)
        xl = np.einsum("YPa,nPpR->nYRap", left, x4)
        gr = np.einsum("bZR,nYqZ->nYRqb", right, g4)
        core_grads.append(np.einsum("nYRap,nYRqb->apqb", xl, gr))
    return core_grads


def ccr_tuple_enumeration(ms: list[evidence.MassFunction]) -> evidence.MassFunction:
    """Raw K-tuple enumeration of the conjunctive rule."""
    n = ms[0].frame_size
    out = np.zeros(1 << n)
    for focal in itertools.product(range(1 << n), repeat=len(ms)):
        inter = (1 << n) - 1
        weight = 1.0
        for m, f in zip(ms, focal):
            inter &= f
            weight *= m.masses[f]
        out[inter] += weight
    return evidence.MassFunction(n, out)


def reassemble_quadrants(blocks: list[np.ndarray]) -> np.ndarray:
    """Inverse of data.quadrant_partition."""
    n = blocks[0].shape[0]
    tl, tr, bl, br = (b.reshape(n, 14, 14) for b in blocks)
    top = np.concatenate([tl, tr], axis=2)
    bottom = np.concatenate([bl, br], axis=2)
    return np.concatenate([top, bottom], axis=1)


def logical_transfer(state: Statevector, qubits) -> Statevector:
    """The teleported register as a relabeling: no circuit at all."""
    qsim._check_indices(state.num_qubits, list(qubits))
    return state.copy()


def idx_pipeline(images: np.ndarray, labels: np.ndarray, classes: list[int],
                 max_n: int, seed: int, salt: int) -> data.VerticalDataset:
    """uint8 IDX pixels to a dataset: every image scaled to float64, then the
    class filter, then a seeded draw of at most ``max_n`` rows."""
    images = np.asarray(images).astype(np.float64) / 255.0
    keep = np.isin(labels, classes)
    images, labels = images[keep], labels[keep]
    remap = {c: i for i, c in enumerate(classes)}
    mapped = np.array([remap[int(v)] for v in labels], dtype=np.int64)
    ds = data.VerticalDataset(data.quadrant_partition(images),
                              data.one_hot(mapped, len(classes)))
    if ds.num_samples <= max_n:
        return ds
    rng = np.random.default_rng(np.random.SeedSequence([seed, salt]))
    return ds.subset(rng.permutation(ds.num_samples)[:max_n])


def load_tabular_csv_dictreader(path, feature_columns: list[str], label_column: str
                                ) -> tuple[np.ndarray, np.ndarray]:
    """data.load_tabular_csv read through csv.DictReader, one dict per row."""
    rows = []
    labels = []
    with open(path, newline="", errors="replace") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: missing header row")
        for col in feature_columns + [label_column]:
            if col not in reader.fieldnames:
                raise ValueError(f"{path}: column {col!r} not in header")
        for row_idx, record in enumerate(reader, start=2):
            values = []
            for col in feature_columns:
                try:
                    values.append(float(record[col]))
                except (TypeError, ValueError):
                    raise ValueError(
                        f"{path}: non-numeric cell at row {row_idx}, "
                        f"column {col!r}: {record[col]!r}") from None
            raw_label = record[label_column]
            try:
                labels.append({0.0: 0, 1.0: 1}[float(raw_label)])
            except (KeyError, TypeError, ValueError):
                raise ValueError(f"{path}: unknown label {raw_label!r} "
                                 f"at row {row_idx}") from None
            rows.append(values)
    features = np.array(rows, dtype=np.float64).reshape(-1, len(feature_columns))
    bad = np.argwhere(~np.isfinite(features))
    if len(bad):
        r, c = bad[0]
        raise ValueError(f"{path}: non-finite cell at row {r + 2}, "
                         f"column {feature_columns[c]!r}: {features[r, c]}")
    return features, np.array(labels, dtype=np.int64)


def one_block_marginals(enc_angles: np.ndarray, vqc_angles: np.ndarray,
                        num_classes: int) -> np.ndarray:
    """Class marginals of one-block party circuits in closed form.

    enc_angles: (B, n); vqc_angles: (S, 1, n, 3) in (RX, RY, RZ) order, one
    setting per run of B/S rows.  Block 0 leaves a product state whose qubit
    q has <Z> = cos(y) cos(x) cos(e) - sin(y) sin(e); RZ drops out.  The CNOT
    ring then sets output qubit 0 to the parity of inputs 1..n-1 and output
    qubit c >= 1 to the parity of inputs 0..c, and the Z basis read-out of a
    parity of independent qubits gives P(c = 1) = (1 - prod <Z_q>) / 2.
    """
    enc = np.asarray(enc_angles, dtype=np.float64)
    b, n = enc.shape
    angles = np.repeat(np.asarray(vqc_angles)[:, 0], b // len(vqc_angles), axis=0)
    x, y = angles[..., 0], angles[..., 1]
    z = np.cos(y) * np.cos(x) * np.cos(enc) - np.sin(y) * np.sin(enc)
    light_cones = [range(1, n)] + [range(c + 1) for c in range(1, num_classes)]
    return np.stack([(1.0 - np.prod(z[:, list(cone)], axis=1)) / 2.0
                     for cone in light_cones], axis=1)
