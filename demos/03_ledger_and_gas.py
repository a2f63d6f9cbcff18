"""The simulated ledger: contract calls, gas, chain integrity
============================================================

Drives the smart-contract surface directly: registers a client key, submits
signed and tampered update hashes, shows how gas is priced and calibrated,
then demonstrates that any mutation of chain history is detected.
"""

import copy
import dataclasses
import hashlib

from pqsbfl.ledger import (
    SimulatedLedger,
    calibrate_gas,
    chain_verify,
    export_chain,
)
from pqsbfl.sigsuite import SchemeId, Signature, keygen, sign

# The gas model is affine: base fee, per-payload-byte fee, storage fee, and
# a per-scheme verification surcharge. calibrate_gas() solves the surcharge
# so that a submit transaction reproduces externally measured totals.
gas_model = calibrate_gas()
print("calibrated verification surcharges:")
for scheme, surcharge in gas_model.g_verify.items():
    print(f"  {scheme.value:>5}: {surcharge:,}")

# A receipt is the contract's verdict: verified or not, the gas charged,
# and the block the transaction lands in.
ledger = SimulatedLedger(gas_model=gas_model)
client_key = keygen(SchemeId.PQC, rng_seed=1)
address = hashlib.sha3_256(b"demo-client").digest()

receipt = ledger.register_client(address, client_key.public_key, SchemeId.PQC)
print(f"\nregister: verified={receipt.verified} gas={receipt.gas_used:,}")

digest = hashlib.sha3_256(b"round-1 model bytes").digest()
signature = sign(client_key, digest)
receipt = ledger.submit_update(address, 1, digest, signature)
print(f"submit:   verified={receipt.verified} gas={receipt.gas_used:,}")

# A tampered signature still costs gas but is rejected and writes nothing.
broken = bytearray(signature.bytes)
broken[42] ^= 0x10
receipt = ledger.submit_update(address, 2, digest, Signature(SchemeId.PQC, bytes(broken)))
print(f"tampered: verified={receipt.verified} gas={receipt.gas_used:,} "
      f"records={sum(map(len, ledger.state.verified_updates.values()))}")

ledger.mine_block()
print(f"\nchain after mining: {len(ledger.chain.blocks)} blocks, "
      f"intact={chain_verify(ledger.chain).intact}")

# Rewriting history breaks the hash chain at exactly the mutated height.
mutated = copy.deepcopy(ledger.chain)
target = mutated.blocks[1]
bad_root = bytes([target.state_root[0] ^ 0x80]) + target.state_root[1:]
mutated.blocks[1] = dataclasses.replace(target, state_root=bad_root)
check = chain_verify(mutated)
print(f"after mutating block 1: intact={check.intact} broken_at={check.broken_height}")

print("\nexported chain (one JSON record per block):")
print(export_chain(ledger.chain))
