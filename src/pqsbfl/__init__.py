"""Desk-scale simulator of post-quantum signed, blockchain-verified
federated learning.

Subpackages:

* :mod:`pqsbfl.sigsuite`  -- ML-DSA-65 / ECDSA / hash-only signatures
* :mod:`pqsbfl.fedcore`   -- synthetic data, local training, FedAvg
* :mod:`pqsbfl.ledger`    -- simulated chain, contract state, gas metering
* :mod:`pqsbfl.protocol`  -- the end-to-end signed federated round loop
* :mod:`pqsbfl.benchcli`  -- benchmark CLI and report emission
"""

from .fedcore import (
    ClientUpdate,
    Dataset,
    ModelParams,
    TrainConfig,
    aggregate,
    canonical_bytes,
    evaluate,
    generate_synthetic,
    local_train,
    partition_dirichlet,
)
from .ledger import (
    Block,
    Chain,
    ContractState,
    GasModel,
    Receipt,
    SimulatedLedger,
    Transaction,
    calibrate_gas,
    chain_verify,
    export_chain,
)
from .protocol import (
    ExperimentConfig,
    ExperimentReport,
    RoundMetrics,
    init_phase,
    overhead_ratio,
    run_experiment,
    run_round,
)
from .sigsuite import (
    CryptoTimings,
    KeyPair,
    SchemeId,
    Signature,
    digest_model,
    keygen,
    keygen_batch,
    measure_primitives,
    sign,
    verify,
)

__version__ = "0.1.0"
