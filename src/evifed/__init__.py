"""evifed: evidential quantum vertical federated learning (dense simulation).

Parties hold disjoint feature blocks and train tensor-train + variational
quantum circuit pipelines; the server fuses their outputs as Dempster-Shafer
evidence, either through an explicit multi-controlled-X fusion circuit or the
exactly-equivalent factorized product of per-party plausibilities.
"""
from . import baselines, data, evidence, model, qsim, teleport, train, ttn, verify
