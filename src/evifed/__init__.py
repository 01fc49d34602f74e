"""evifed: evidential quantum vertical federated learning (dense simulation).

Parties hold disjoint feature blocks and train tensor-train + variational
quantum circuit pipelines; the server fuses their outputs as Dempster-Shafer
evidence, either through an explicit multi-controlled-X fusion circuit or the
exactly-equivalent factorized product of per-party plausibilities.
"""
from . import baselines, data, evidence, model, qsim, teleport, train, ttn, verify
from .evidence import MassFunction, ccr_combine, decode_state, encode_bba
from .model import PartyModel, Prediction, fuse_factorized, fuse_joint_circuit
from .qsim import Gate, Statevector
from .teleport import teleport_qubit, teleport_register
from .train import TrainConfig, TrainTrace, train_run
from .ttn import TTLayerParams, ttn_forward

__all__ = [
    "baselines", "data", "evidence", "model", "qsim", "teleport",
    "train", "ttn", "verify",
    "MassFunction", "ccr_combine", "decode_state", "encode_bba",
    "PartyModel", "Prediction", "fuse_factorized", "fuse_joint_circuit",
    "Gate", "Statevector",
    "teleport_qubit", "teleport_register",
    "TrainConfig", "TrainTrace", "train_run",
    "TTLayerParams", "ttn_forward",
]

__version__ = "0.1.0"
