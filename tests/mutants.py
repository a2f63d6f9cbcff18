"""Mutation checks: break one rule at a time in a copy of the source and
require the tests that guard it to fail.

Run from any directory: ``python tests/mutants.py``. Each row of
``MUTANTS`` is (file under ``src/``, exact source text, replacement, pytest
selection). The unchanged source must pass every row's selection first.
Then each row gets a fresh copy of ``src/`` with its text replaced, which
must occur exactly once in its file, and its selection must fail. Every
pytest run uses the same ``--hypothesis-seed`` and a fresh working
directory, so no example database carries over from one run to the next.
Exit status is 0 iff the unchanged source passes and every mutant is caught.

pytest does not collect this file (its name does not start with ``test_``),
so the tier-1 run does not include it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
HYPOTHESIS_SEED = "0"

PROTOCOL, LEDGER, BENCHCLI = "pqsbfl/protocol.py", "pqsbfl/ledger.py", "pqsbfl/benchcli.py"
FEDCORE, SIGSUITE = "pqsbfl/fedcore.py", "pqsbfl/sigsuite.py"
WIRE = "tests/test_protocol.py::TestWireFields"
ROUND = "tests/test_protocol.py::TestRunRound"
NON_FINITE = ("tests/test_benchcli.py::TestReportFiles"
              "::test_report_with_non_finite_value_writes_nothing")
SYNTHETIC = "tests/test_fedcore.py::TestGenerateSynthetic"
REJECTED = "tests/test_protocol.py::TestInitPhase::test_infinity_rejected_before_keygen"
LEDGER_TESTS = "tests/test_ledger.py"
# The model-based test is every contract row's backstop; pytest stops at the
# first failure (-x), so a row's faster test, listed first, usually ends it.
MACHINE = "tests/test_ledger_machine.py"

MUTANTS = (
    # _intake: a client id outside [0, n) is sent from the unregistered address
    (PROTOCOL, "if 0 <= index < len(state.addresses)", "if index < len(state.addresses)",
     [f"{ROUND}::test_unknown_client_id_rejected_round_completes"]),
    # _intake: a digest that is not bytes is sent empty
    (PROTOCOL, "digest if isinstance(digest, bytes) else", "digest if digest is not None else",
     [WIRE]),
    # _intake: a signature that is not a Signature is sent empty
    (PROTOCOL, "if not (isinstance(sig, Signature) and", "if not (sig is not None and",
     [WIRE]),
    # _intake: a Signature whose tag is not a SchemeId is sent empty
    (PROTOCOL, "isinstance(sig, Signature) and isinstance(sig.scheme, SchemeId)",
     "isinstance(sig, Signature)", [WIRE]),
    # _intake: a Signature whose bytes are not bytes is sent empty
    (PROTOCOL, "\n            and isinstance(sig.bytes, bytes)):", "):", [WIRE]),
    # _intake: every value the ModelParams constructor refuses excludes its client
    (PROTOCOL, "except (TypeError, ValueError, OverflowError, LayoutMismatch):",
     "except LayoutMismatch:", [WIRE]),
    # _intake: a model of another layout is not aggregated
    (PROTOCOL, "fits = model.layout == state.global_params.layout and ", "fits = ", [WIRE]),
    # _intake: a model with a non-finite value is not aggregated
    (PROTOCOL, " and np.isfinite(model.values).all()", "", [WIRE]),
    # _intake: a dropped message sends nothing
    (PROTOCOL, "    if sub is None:\n        return None\n", "",
     [f"{ROUND}::test_dropped_message_excludes_only_its_client"]),
    # bind phase: the model must re-digest to the hash in its slot
    (PROTOCOL, "sigsuite.digest_model(model) == slots[address].update_hash]", "True]",
     [f"{ROUND}::test_offchain_params_digest_mismatch_excluded"]),
    # the mean signature size is over the signatures sent
    (PROTOCOL, "state.sig_bytes_total / state.sigs_sent if state.sigs_sent else 0.0",
     "state.sig_bytes_total / (config.n_clients * len(metrics)) if metrics else 0.0",
     [f"{ROUND}::test_dropped_message_excludes_only_its_client"]),
    # a report JSON cannot spell is an error naming the run, not a traceback
    (BENCHCLI, "    except ValueError as exc:\n        raise ValidationError(",
     "    except OverflowError as exc:\n        raise ValidationError(",
     [NON_FINITE]),
    # the summary's means are exact, so finite per-round values never sum to inf
    (PROTOCOL, "float(statistics.mean(getattr(m, f) for m in metrics))",
     "sum(getattr(m, f) for m in metrics) / len(metrics)", [NON_FINITE]),
    # generate_synthetic's scratch is a block of rows, not a whole float64 table
    (FEDCORE, "_SYNTHETIC_BLOCK_ROWS = 256", "_SYNTHETIC_BLOCK_ROWS = 4096",
     [f"{SYNTHETIC}::test_scratch_below_half_a_float64_table"]),
    # each row gets its own class mean
    (FEDCORE, "block += means[labels[rows]]", "block += means[labels[rows]][::-1]",
     [f"{SYNTHETIC}::test_known_answer"]),
    # config: each rule rejects its own field before keygen
    (PROTOCOL, """        if not isinstance(self.scheme, SchemeId):
            out.append(f"unknown scheme {self.scheme!r}")
        elif""", "        if", [f"{REJECTED}[scheme.unknown]"]),
    (PROTOCOL, 'or self.dataset.startswith("csv:")):', "or True):",
     [f"{REJECTED}[dataset.unknown]"]),
    (PROTOCOL, "self.train.local_epochs < 0", "self.train.local_epochs < -1",
     [f"{REJECTED}[train.local_epochs]"]),
    (PROTOCOL, "self.train.batch_size < 1", "self.train.batch_size < 0",
     [f"{REJECTED}[train.batch_size]"]),
    (PROTOCOL, "self.synth_classes < 2 or", "self.synth_classes < 1 or",
     [f"{REJECTED}[synth_classes]"]),
    (PROTOCOL, "self.synth_features < 1", "self.synth_features < 0",
     [f"{REJECTED}[synth_features]"]),
    # a key under a scheme that is not a SchemeId is an error, not ill-formed
    (SIGSUITE, "        return len(public_key) > 0\n    raise UnsupportedScheme(",
     "        return len(public_key) > 0\n    return False  # (",
     ["tests/test_sigsuite.py::TestSignVerify"
      "::test_scheme_that_is_not_a_scheme_id_is_unsupported"]),
    # a CSV path that cannot be opened, a directory included, is a ParseError
    (FEDCORE, "except OSError as exc:", "except FileNotFoundError as exc:",
     ["tests/test_fedcore.py::TestCsvIngestion::test_empty_rejected"]),
    # the block header covers its height
    (LEDGER, 'struct.pack("<q", self.height), self.parent_hash,', "self.parent_hash,",
     [f"{LEDGER_TESTS}::TestChainIntegrity"]),
    # contract: a key that can never verify is not registered
    (LEDGER, "if not well_formed_key(tx.payload, tx.scheme):", "if False:",
     [f"{LEDGER_TESTS}::TestRegistration::test_key_that_cannot_verify_rejected_and_charged",
      MACHINE]),
    # contract: a payload shorter than a hash is charged as a bare hash
    (LEDGER, "max(0, len(tx.payload) - HASH_BYTES)", "len(tx.payload) - HASH_BYTES",
     [f"{LEDGER_TESTS}::TestSubmitUpdate::test_short_hash_rejected_and_charged", MACHINE]),
    # contract: slots are write-once
    (LEDGER, "if not valid or slot in table:", "if not valid:",
     [f"{LEDGER_TESTS}::TestSubmitUpdate::test_duplicate_round_slot_write_once", MACHINE]),
    # contract: a submit's scheme tag must be the registered one
    (LEDGER, "if tx.scheme is not scheme or", "if public_key is None or",
     [f"{ROUND}::test_malformed_submissions_rejected_round_completes", MACHINE]),
    # contract: a registration pays one storage slot per started 32 bytes
    (LEDGER, "records = -(-pk_len // 32) if stored", "records = pk_len // 32 if stored",
     [f"{LEDGER_TESTS}::TestRegistration::test_none_registration_gas", MACHINE]),
    # contract: a round's first verified update stores the round's table
    (LEDGER, "            self.verified_updates[tx.round] = table\n", "",
     [f"{LEDGER_TESTS}::TestVerifiedOnlyWrites", MACHINE]),
    # contract: aggregation slots are keyed by round
    (LEDGER, "table, slot = self.aggregation_records, tx.round",
     "table, slot = self.aggregation_records, tx.sender",
     [f"{LEDGER_TESTS}::TestSubmitAggregation::test_duplicate_round_rejected", MACHINE]),
)


def _pytest(src: Path, selection) -> int:
    """pytest's exit status for ``selection`` with ``src`` as the package root."""
    with tempfile.TemporaryDirectory(prefix="mutant-cwd-") as cwd:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             f"--hypothesis-seed={HYPOTHESIS_SEED}", "--rootdir", str(REPO),
             "-c", str(REPO / "pyproject.toml"), *(str(REPO / s) for s in selection)],
            cwd=cwd, env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    return result.returncode


def _copy_src(into: Path) -> Path:
    return Path(shutil.copytree(REPO / "src", into / "src",
                                ignore=shutil.ignore_patterns("__pycache__", "*.egg-info")))


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tmp = Path(tmp)
        for path, text, _, _ in MUTANTS:
            count = (REPO / "src" / path).read_text().count(text)
            if count != 1:
                print(f"error: {path}: the text {text!r} occurs {count} times, not once")
                return 1

        started = time.perf_counter()
        selections = list(dict.fromkeys(s for *_, selection in MUTANTS for s in selection))
        status = _pytest(_copy_src(tmp / "unchanged"), selections)
        print(f"unchanged source: exit {status} ({time.perf_counter() - started:.1f} s)")
        if status != 0:
            print("error: the unchanged source fails the selected tests")
            return 1

        survivors = 0
        for i, (path, text, replacement, selection) in enumerate(MUTANTS):
            started = time.perf_counter()
            src = _copy_src(tmp / f"mutant-{i}")
            target = src / path
            target.write_text(target.read_text().replace(text, replacement))
            status = _pytest(src, selection)
            caught = status == 1  # 1: tests failed; anything else is a broken row
            survivors += not caught
            print(f"{'caught' if caught else 'NOT CAUGHT'} (exit {status}, "
                  f"{time.perf_counter() - started:.1f} s) {path}: {text.strip()[:60]!r}")
            shutil.rmtree(src.parent)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants caught")
    return 0 if survivors == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
