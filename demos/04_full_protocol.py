"""The full protocol, end to end
==============================

Runs complete signed federated experiments and reproduces the headline
observations: learning is identical across signature schemes and chain
modes, gas scales with the scheme, and a tampering client is excluded
without derailing the round.
"""

import dataclasses

from pqsbfl.protocol import ExperimentConfig, init_phase, run_experiment, run_round
from pqsbfl.sigsuite import SchemeId, Signature

ROUNDS = 10

print("one experiment per scheme and chain mode (same master seed)")
print("-" * 72)
trajectories = {}
for scheme in (SchemeId.PQC, SchemeId.ECDSA, SchemeId.NONE):
    for blockchain in (True, False):
        cfg = ExperimentConfig(
            scheme=scheme, n_clients=3, rounds=ROUNDS,
            blockchain=blockchain, master_seed=99,
        )
        report = run_experiment(cfg)
        trajectories[cfg.name()] = [m.model_digest for m in report.rounds]
        print(
            f"{cfg.name():>22}: accuracy {report.final_accuracy:.4f}  "
            f"gas/round {report.summary['total_gas']:12,.0f}  "
            f"overhead {report.summary['overhead_ratio']:.6f}"
        )

reference = next(iter(trajectories.values()))
identical = all(t == reference for t in trajectories.values())
print(f"\nper-round global models bit-identical across all six runs: {identical}")
# The signature layer authenticates updates; it must never touch training
# randomness. This identity is the cheapest strong regression oracle here.

print()
print("a tampering client is excluded, the round still completes")
print("-" * 72)
cfg = ExperimentConfig(scheme=SchemeId.PQC, n_clients=3, rounds=0, master_seed=99)
state = init_phase(cfg)


def corrupt_client_two(submission):
    if submission.client_id != 2:
        return submission
    sig = bytearray(submission.sig.bytes)
    sig[0] ^= 0x01
    return dataclasses.replace(
        submission, sig=Signature(submission.sig.scheme, bytes(sig))
    )


metrics = run_round(state, 1, tamper_hook=corrupt_client_two)
print(f"verified={metrics.verified_count} rejected={metrics.rejected_count} "
      f"accuracy={metrics.accuracy:.4f}")
print("on-chain verified updates this round:",
      len(state.ledger.state.verified_updates[1]))
