"""Spans around the calls into evifed's public functions.

The wrappers are installed from the benchmark, not inside the program: each
traced function is replaced by one wrapper at every module attribute through
which the program looks it up (``train`` imports ``batched_marginals`` and
``ttn_backward`` by name, so patching ``model`` alone would miss the training
path).  Spans live in memory and are written out when the run ends.
"""
from __future__ import annotations

import functools
import gzip
from collections import defaultdict
from time import perf_counter_ns


def _rows(tracer, args, result):
    enc, vqc = args[0], args[1]
    rows, n = enc.shape
    sweeps = n + 3 * n * vqc.shape[1]   # Ry encoding, then Rx/Ry/Rz per block
    counts = {"rows": rows, "amp_sweeps": rows * (1 << n) * sweeps}
    if "train.full_gradient" in tracer.open_names:
        counts["gradient_rows"] = rows
    return counts


def _kron_bytes(tracer, args, result):
    a, b = args[0], args[1]
    amps = (1 << a.num_qubits) + (1 << b.num_qubits) + (1 << result.num_qubits)
    return {"bytes": 16 * amps}


def _loaded_bytes(tracer, args, result):
    return {"bytes": sum(arr.nbytes for arr in result)}


# (span name, module, attribute, other modules that import it by name,
#  counter, whether the call is one sample's work)
TRACED = [
    ("data.load", "data", "load_idx_images", [], _loaded_bytes, False),
    ("data.load", "data", "load_tabular_csv", [], _loaded_bytes, False),
    ("cli.build_datasets", "cli", "build_datasets", [], None, False),
    ("ttn.forward", "ttn", "ttn_forward", ["model"], None, False),
    ("ttn.backward", "ttn", "ttn_backward", ["train", "baselines"], None, False),
    ("model.batched_marginals", "model", "batched_marginals",
     ["train", "baselines"], _rows, False),
    ("model.party_forward", "model", "party_forward", [], None, False),
    ("model.fuse_joint_state", "model", "fuse_joint_state", [], None, False),
    ("qsim.apply_gate", "qsim", "apply_gate", [], None, False),
    ("qsim.apply_mcx", "qsim", "apply_mcx", [], None, False),
    ("qsim.tensor_product", "qsim", "tensor_product", [], _kron_bytes, False),
    ("qsim.prob_one", "qsim", "prob_one", [], None, False),
    ("train.train_run", "train", "train_run", [], None, False),
    ("train.full_gradient", "train", "full_gradient", [], None, True),
    ("train.party_angle_gradients", "train", "party_angle_gradients", [],
     None, False),
    ("train.adam_step", "train", "adam_step", [], None, False),
    ("train.eviqvfl_predict", "train", "eviqvfl_predict", [], None, True),
    ("train.EvidentialTrainable.predict", "train", "EvidentialTrainable.predict",
     [], None, True),
    ("evidence.ccr_combine", "evidence", "ccr_combine", [], None, False),
]


class Tracer:
    """Records (name, start, end, parent, sample, phase) per traced call."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.stack: list[int] = []
        self.open_names: list[str] = []
        self.counts: dict = defaultdict(int)
        self.phase = "setup"
        self.sample = -1
        self.samples_opened = 0
        self._originals: list = []

    def _wrap(self, fn, name, counter, opens_sample):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            opened = opens_sample and self.sample < 0
            if opened:
                self.sample = self.samples_opened
                self.samples_opened += 1
            self.spans.append(None)
            self.stack.append(span)
            self.open_names.append(name)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self.stack.pop()
                self.open_names.pop()
                self.spans[span] = (name, start, end, parent, self.sample,
                                    self.phase)
                if opened:
                    self.sample = -1
            if counter is not None:
                for key, value in counter(self, args, result).items():
                    self.counts[(self.phase, name, key)] += value
            return result
        return traced

    def install(self) -> None:
        """Patch every lookup site; fail if one no longer holds the original."""
        for name, module, path, sites, counter, opens_sample in TRACED:
            *owner, attr = path.split(".")
            home = functools.reduce(getattr, owner, getattr(self.package, module))
            fn = getattr(home, attr)
            wrapper = self._wrap(fn, name, counter, opens_sample)
            for site in [home] + [getattr(self.package, m) for m in sites]:
                if getattr(site, attr) is not fn:
                    raise RuntimeError(
                        f"{site.__name__}.{attr} is not {module}.{path}; the "
                        f"tracer's patch list no longer matches the program")
                self._originals.append((site, attr, fn))
                setattr(site, attr, wrapper)

    def uninstall(self) -> None:
        for site, attr, fn in reversed(self._originals):
            setattr(site, attr, fn)
        self._originals.clear()

    def totals(self) -> dict:
        """Per (phase, name): calls, total ns and self ns.

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded and nest, so children never
        overlap.
        """
        child_ns = defaultdict(int)
        for span in self.spans:
            _, start, end, parent, _, _ = span
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
        for i, (name, start, end, _, _, phase) in enumerate(self.spans):
            row = out[(phase, name)]
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[i]
        return out

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as f:
            f.write("id,name,start_ns,end_ns,parent,sample,phase\n")
            for i, (name, start, end, parent, sample, phase) in enumerate(self.spans):
                f.write(f"{i},{name},{start},{end},{parent},{sample},{phase}\n")
