"""CLI contracts: config parsing, suites, report files, table schemas."""

import csv
import dataclasses
import json
from pathlib import Path

import pytest

from pqsbfl import benchcli, sigsuite
from pqsbfl.benchcli import (
    COMPARISON_CSV_COLUMNS,
    emit_crypto_table,
    main,
    parse_config,
    parse_suite,
    run_suite,
)
from pqsbfl.errors import ParseError, ValidationError
from pqsbfl.fedcore import TrainConfig
from pqsbfl.ledger import DEFAULT_GAS_TARGETS
from pqsbfl.protocol import ExperimentConfig, derive_seed
from pqsbfl.sigsuite import SchemeId

FAST = dict(
    rounds="2",
    synth_samples="300",
    synth_features="8",
    synth_classes="3",
)


def _fast_flags(**extra):
    flags = {k: v for k, v in FAST.items()}
    flags.update(extra)
    return flags


class TestParseConfig:
    def test_flags_only_naming(self):
        cfg = parse_config(
            overrides={"crypto": "PQC", "clients": 3, "blockchain": "on", "dataset": "synth"}
        )
        assert cfg.name() == "synth-PQC-3c-BC"

    def test_zero_clients_rejected_with_full_violation_list(self):
        with pytest.raises(ValidationError) as excinfo:
            parse_config(overrides={"clients": 0, "rounds": -1})
        text = "; ".join(excinfo.value.violations)
        assert "n_clients" in text and "rounds" in text

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nrounds = 50\nclients = 5\n")
        cfg = parse_config(path, overrides={"rounds": 5})
        assert cfg.rounds == 5
        assert cfg.n_clients == 5

    def test_sections_parsed(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[experiment]\ncrypto = ECDSA\nblockchain = off\n"
            "[train]\nlocal_epochs = 3\nbatch_size = 16\nlearning_rate = 0.01\n"
            "[gas]\nPQC = 2000000\n"
            "[latency]\nconstant = 0.25\n"
        )
        cfg = parse_config(path)
        assert cfg.scheme is SchemeId.ECDSA
        assert cfg.blockchain is False
        assert cfg.train == TrainConfig(local_epochs=3, batch_size=16, learning_rate=0.01)
        assert cfg.gas_targets[SchemeId.PQC] == 2_000_000
        assert cfg.latency == 0.25
        path.write_text("[latency]\nuniform = 0.1,0.5\n")
        with pytest.raises(ParseError, match=r"\[latency\]\.uniform: unknown key"):
            parse_config(path)
        path.write_text("[latency]\nconstant = nan\n")
        with pytest.raises(ValidationError, match="latency"):
            parse_config(path)

    def test_parse_errors_identify_location(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nclients = many\n")
        with pytest.raises(ParseError, match="clients"):
            parse_config(path)
        path.write_text("[experiment]\nwheels = 4\n")
        with pytest.raises(ParseError, match="wheels"):
            parse_config(path)
        path.write_text("[typo]\nx = 1\n")
        with pytest.raises(ParseError, match="typo"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_config(tmp_path / "absent.ini")


# One valid raw value per config key, spelled as a user would write it.
_KEY_SAMPLES = {
    "experiment.dataset": "csv:data/iris.csv",
    "experiment.crypto": "ECDSA",
    "experiment.clients": "4",
    "experiment.rounds": "7",
    "experiment.blockchain": "0",
    "experiment.seed": "99",
    "experiment.alpha": "0.3",
    "experiment.synth_samples": "600",
    "experiment.synth_features": "9",
    "experiment.synth_classes": "4",
    "train.local_epochs": "2",
    "train.batch_size": "16",
    "train.learning_rate": "0.01",
    "latency.constant": "0.25",
    "gas.pqc": "2000000",
    "gas.ecdsa": "200000",
    "gas.none": "180000",
}


class TestKeyTable:
    @pytest.mark.parametrize("key", sorted(benchcli._KEYS))
    def test_file_section_and_suite_entry_agree(self, tmp_path, key):
        section, name = key.split(".")
        name = name.upper() if section == "gas" else name  # gas.PQC, as documented
        raw = _KEY_SAMPLES[key]
        config_file = tmp_path / "exp.ini"
        config_file.write_text(f"[{section}]\n{name} = {raw}\n")
        suite_file = tmp_path / "suite.ini"
        entry_key = name if section == "experiment" else f"{section}.{name}"
        suite_file.write_text(f"[entry]\n{entry_key} = {raw}\n")

        from_file = parse_config(config_file)
        (from_suite,), _ = parse_suite(suite_file)
        # the entry's seed is derived from the file's (suite seed 0)
        identity = f"{from_file.dataset_label()}-{from_file.n_clients}c-{from_file.rounds}r"
        assert from_suite.master_seed == derive_seed(
            from_file.master_seed, "suite-entry", identity
        )
        assert dataclasses.replace(from_suite, master_seed=from_file.master_seed) == from_file
        assert from_file != ExperimentConfig()

        # a key with a flag reads the flag's text as it reads the file's
        if section == "experiment" and name in benchcli._MODE_FLAGS["run"]:
            flags = vars(benchcli._build_arg_parser().parse_args([f"--{name}", raw]))
            assert parse_config(overrides=flags) == from_file

        # configparser lowercases keys, so the message names the key as read
        unknown = f"unknown key '{key}_typo'"
        config_file.write_text(f"[{section}]\n{name}_typo = {raw}\n")
        with pytest.raises(ParseError, match=unknown):
            parse_config(config_file)
        suite_file.write_text(f"[entry]\n{entry_key}_typo = {raw}\n")
        with pytest.raises(ParseError, match=unknown):
            parse_suite(suite_file)


class TestSuite:
    def _write_suite(self, tmp_path, body):
        path = tmp_path / "suite.ini"
        path.write_text(body)
        return path

    def test_three_scheme_suite_has_identical_accuracy_columns(self, tmp_path):
        body = "[suite]\nseed = 7\n"
        for scheme in ("PQC", "ECDSA", "NONE"):
            body += (
                f"[{scheme.lower()}]\ncrypto = {scheme}\nclients = 3\n"
                + "".join(f"{k} = {v}\n" for k, v in FAST.items())
            )
        rows, reports = run_suite(*parse_suite(self._write_suite(tmp_path, body),
                                               out_dir=tmp_path / "out"))
        assert len(rows) == 3
        assert all(row["status"] == "ok" for row in rows.values())
        accuracies = {row["final_accuracy"] for row in rows.values()}
        assert len(accuracies) == 1

    def test_empty_suite(self, tmp_path):
        path = self._write_suite(tmp_path, "[suite]\nseed = 1\n")
        with pytest.raises(ParseError, match="no suite entries") as excinfo:
            parse_suite(path)
        assert str(path) in str(excinfo.value)
        assert main(["--suite", str(path), "--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()

    def test_duplicate_config_names_rejected(self, tmp_path):
        body = (
            "[a]\ncrypto = PQC\nclients = 3\n"
            "[b]\ncrypto = PQC\nclients = 3\n"
        )
        with pytest.raises(ValidationError, match="duplicate"):
            parse_suite(self._write_suite(tmp_path, body))

    def test_failed_config_recorded_others_still_run(self, tmp_path):
        body = (
            "[bad]\ncrypto = PQC\nclients = 3\nalpha = -1\n"
            + "".join(f"{k} = {v}\n" for k, v in FAST.items())
            + "[good]\ncrypto = NONE\nclients = 2\n"
            + "".join(f"{k} = {v}\n" for k, v in FAST.items())
        )
        rows, reports = run_suite(*parse_suite(self._write_suite(tmp_path, body),
                                               out_dir=tmp_path / "out"))
        assert rows["synth-PQC-3c-BC"]["status"].startswith("error: ")
        assert rows["synth-NONE-2c-BC"]["status"] == "ok"
        assert list(reports) == ["synth-NONE-2c-BC"]
        assert (tmp_path / "out" / "comparison.csv").exists()

    def test_rerun_reproduces_deterministic_columns(self, tmp_path):
        body = (
            "[suite]\nseed = 3\n[one]\ncrypto = NONE\nclients = 2\n"
            + "".join(f"{k} = {v}\n" for k, v in FAST.items())
        )
        path = self._write_suite(tmp_path, body)
        deterministic = [
            c
            for c in COMPARISON_CSV_COLUMNS
            if c
            not in (
                "mean_round_time_s",
                "mean_compute_time_s",
                "mean_sign_ms",
                "mean_verify_ms",
                "mean_overhead_ratio",
            )
        ]

        def run_once(out):
            run_suite(*parse_suite(path, out_dir=out))
            with open(out / "comparison.csv", newline="") as fh:
                return list(csv.DictReader(fh))

        first = run_once(tmp_path / "r1")
        second = run_once(tmp_path / "r2")
        assert len(first) == len(second) == 1
        for col in deterministic:
            assert first[0][col] == second[0][col], col

    def test_comparison_columns_match_report_summaries(self, tmp_path):
        body = (
            "[suite]\nseed = 5\n[one]\ncrypto = NONE\nclients = 2\n"
            + "".join(f"{k} = {v}\n" for k, v in FAST.items())
        )
        rows, reports = run_suite(*parse_suite(self._write_suite(tmp_path, body),
                                               out_dir=tmp_path / "out"))
        (name,) = rows
        row, report = rows[name], reports[name]
        assert float(row["final_accuracy"]) == report.final_accuracy
        assert float(row["mean_accuracy"]) == report.summary["accuracy"]
        assert float(row["mean_total_gas"]) == report.summary["total_gas"]
        written = json.loads((tmp_path / "out" / name / "report.json").read_text())
        assert written["final_accuracy"] == report.final_accuracy

    def test_suite_exit_code_nonzero_on_any_failure(self, tmp_path):
        bad = self._write_suite(
            tmp_path, "[bad]\ncrypto = NONE\nclients = 0\nrounds = 1\n"
        )
        assert main(["--suite", str(bad), "--out", str(tmp_path / "o1")]) == 1
        good = self._write_suite(
            tmp_path,
            "[good]\ncrypto = NONE\nclients = 2\n"
            + "".join(f"{k} = {v}\n" for k, v in FAST.items()),
        )
        assert main(["--suite", str(good), "--out", str(tmp_path / "o2")]) == 0

    def test_experiment_flags_rejected_with_suite(self, tmp_path, capsys):
        path = self._write_suite(
            tmp_path,
            "[one]\ncrypto = NONE\nclients = 2\n"
            + "".join(f"{k} = {v}\n" for k, v in FAST.items()),
        )
        out = tmp_path / "out"
        for flags in (
            ["--crypto", "PQC", "--clients", "5", "--rounds", "3"],
            ["--clients", "0"],
            ["--config", str(path), "--dataset", "synth", "--blockchain", "off"],
            ["--crypto-bench"],
        ):
            assert main(["--suite", str(path), *flags, "--seed", "2", "--out", str(out)]) == 1
            named = " ".join(f for f in flags if f.startswith("--"))
            assert capsys.readouterr().err == (
                f"error: --suite takes only --seed and --out, got {named}\n"
            )
            assert not out.exists()
        assert main(["--suite", str(path), "--seed", "2", "--out", str(out)]) == 0

    def test_entry_seed_derivation_isolates_learning_identity(self, tmp_path):
        # same dataset/clients/rounds: PQC and NONE entries share a seed
        body = (
            "[suite]\nseed = 9\n"
            "[p]\ncrypto = PQC\nclients = 2\nrounds = 1\n"
            "[n]\ncrypto = NONE\nclients = 2\nrounds = 1\n"
            "[m]\ncrypto = NONE\nclients = 4\nrounds = 1\n"
        )
        configs, _ = parse_suite(self._write_suite(tmp_path, body))
        seeds = {c.name(): c.master_seed for c in configs}
        assert seeds["synth-PQC-2c-BC"] == seeds["synth-NONE-2c-BC"]
        assert seeds["synth-NONE-2c-BC"] != seeds["synth-NONE-4c-BC"]

    def test_flags_win_over_the_suite_section_over_defaults(self, tmp_path):
        entry = "[e]\ncrypto = NONE\n"
        identity = "synth-3c-50r"  # the defaults' learning identity
        (cfg,), out = parse_suite(self._write_suite(tmp_path, entry))
        assert cfg.master_seed == derive_seed(0, "suite-entry", identity)
        assert out == Path("out")

        path = self._write_suite(tmp_path, f"[suite]\nseed = 4\nout = from-file\n{entry}")
        (cfg,), out = parse_suite(path)
        assert cfg.master_seed == derive_seed(4, "suite-entry", identity)
        assert out == Path("from-file")

        (cfg,), out = parse_suite(path, out_dir=tmp_path / "flag", base_seed=5)
        assert cfg.master_seed == derive_seed(5, "suite-entry", identity)
        assert out == tmp_path / "flag"

    def test_seeds_outside_u64_rejected_before_derivation(self, tmp_path):
        entry = "[e]\ncrypto = NONE\n"
        for body, base_seed in (
            (entry + "seed = -1\n", None),
            (f"[suite]\nseed = {2**64}\n" + entry, None),
            (entry, -1),
        ):
            path = self._write_suite(tmp_path, body)
            with pytest.raises(ValidationError, match=r"master_seed must be in \[0, 2\*\*64\)"):
                parse_suite(path, base_seed=base_seed)
        (cfg,), _ = parse_suite(self._write_suite(tmp_path, entry + f"seed = {2**64 - 1}\n"))
        assert cfg.master_seed == derive_seed(2**64 - 1, "suite-entry", "synth-3c-50r")

    @pytest.mark.parametrize("body, section, key", [
        ("[suite]\ncolour = red\n", "suite", "colour"),
        ("[entry]\nblockchain = maybe\n", "entry", "blockchain"),
        ("[entry]\nalpha = x\n", "entry", "alpha"),
        ("[entry]\ncrypto = RSA\n", "entry", "crypto"),
        ("[entry]\nlatency.uniform = 1\n", "entry", "latency.uniform"),
        ("[entry]\ncrypto = NONE\ncrypto = PQC\n", "entry", "crypto"),  # configparser rejects
    ], ids=["suite-key", "blockchain", "alpha", "crypto", "latency.uniform", "ini"])
    def test_parse_errors_name_file_section_and_key(self, tmp_path, body, section, key):
        path = self._write_suite(tmp_path, body)
        with pytest.raises(ParseError) as excinfo:
            parse_suite(path)
        message = str(excinfo.value)
        assert str(path) in message
        rest = message.replace(str(path), "")
        assert section in rest and key in rest


class TestReportFiles:
    def test_single_run_files_and_headers(self, tmp_path):
        rc = main(
            [
                "--crypto",
                "NONE",
                "--clients",
                "2",
                "--rounds",
                "2",
                "--out",
                str(tmp_path),
                "--config",
                str(_fast_config_file(tmp_path)),
            ]
        )
        assert rc == 0
        run_dir = tmp_path / "synth-NONE-2c-BC"
        with open(run_dir / "rounds.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert tuple(header) == (
            "round",
            "accuracy",
            "round_time_s",
            "compute_time_s",
            "simulated_latency_s",
            "mean_sign_ms",
            "mean_verify_ms",
            "mean_tx_time_s",
            "mean_gas_per_update",
            "total_gas",
            "overhead_ratio",
            "verified_count",
            "rejected_count",
            "model_digest",
        )
        report = json.loads((run_dir / "report.json").read_text())
        assert report["config"]["name"] == "synth-NONE-2c-BC"
        assert len(report["rounds"]) == 2
        digest = report["rounds"][0]["model_digest"]
        assert digest == digest.lower() and len(digest) == 64

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        rc = main(["--clients", "0", "--out", str(tmp_path)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_flag_value_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--clients", "abc", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --clients: expected integer, got 'abc'\n"
        assert not out.exists()

    def test_crypto_bench_writes_table(self, tmp_path):
        rc = main(
            ["--crypto-bench", "--crypto", "NONE", "--trials", "3", "--out", str(tmp_path)]
        )
        assert rc == 0
        with open(tmp_path / "crypto.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "scheme", "trials", "keygen_ms", "sign_ms", "verify_ms",
            "sig_size_b", "public_key_b", "private_key_b",
        ]
        assert rows[1][0] == "NONE"

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_crypto_bench_rejects_nonpositive_trials(self, tmp_path, capsys, trials):
        rc = main(["--crypto-bench", "--crypto", "NONE", "--trials", trials,
                   "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: --trials must be >= 1, got {trials}\n"
        assert not (tmp_path / "crypto.csv").exists()


class TestModeFlags:
    @pytest.mark.parametrize("mode, flags, message", [
        ("suite", ["--trials", "0"], "--suite takes only --seed and --out, got --trials"),
        ("crypto-bench",
         ["--crypto", "NONE", "--clients", "7", "--rounds", "9", "--seed", "3", "--trials", "2"],
         "--crypto-bench takes only --crypto, --trials and --out, "
         "got --clients --rounds --seed"),
        ("run", ["--crypto", "NONE", "--clients", "2", "--rounds", "1", "--trials", "0"],
         "a run takes only --config, --dataset, --crypto, --clients, --rounds, "
         "--blockchain, --seed and --out, got --trials"),
    ], ids=["suite", "crypto-bench", "run"])
    def test_each_mode_rejects_flags_it_does_not_read(self, tmp_path, capsys,
                                                      mode, flags, message):
        suite = tmp_path / "suite.ini"
        suite.write_text(
            "[one]\ncrypto = NONE\nclients = 2\n"
            + "".join(f"{k} = {v}\n" for k, v in FAST.items())
        )
        selector = {"suite": ["--suite", str(suite)], "crypto-bench": ["--crypto-bench"],
                    "run": []}[mode]
        out = tmp_path / "out"
        assert main([*selector, *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_crypto_bench_trials_default_to_100(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            benchcli, "measure_primitives",
            lambda scheme, trials: sigsuite.CryptoTimings(scheme, trials, 0, 0, 0, 32, 26, 27),
        )
        assert main(["--crypto-bench", "--crypto", "NONE", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "crypto.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["trials"] == "100"


class TestOutputSchema:
    """Every serialized record's field names, spelled out: a renamed,
    dropped or reordered field fails here, not only downstream."""

    def test_report_json_key_sets(self, tmp_path):
        assert main(["--crypto", "NONE", "--clients", "2", "--out", str(tmp_path),
                     "--config", str(_fast_config_file(tmp_path))]) == 0
        report = json.loads((tmp_path / "synth-NONE-2c-BC" / "report.json").read_text())
        assert set(report) == {
            "config", "initial_accuracy", "final_accuracy", "summary", "crypto_sizes", "rounds",
        }
        assert set(report["config"]) == {
            "name", "dataset", "scheme", "n_clients", "rounds", "blockchain", "train",
            "gas_targets", "latency", "master_seed", "alpha", "synth_samples",
            "synth_features", "synth_classes",
        }
        assert set(report["config"]["train"]) == {
            "local_epochs", "batch_size", "learning_rate", "optimizer",
        }
        assert report["config"]["train"]["optimizer"] == "ADAM"
        assert set(report["summary"]) == {
            "accuracy", "round_time_s", "compute_time_s", "simulated_latency_s",
            "mean_sign_ms", "mean_verify_ms", "mean_tx_time_s", "mean_gas_per_update",
            "total_gas", "overhead_ratio", "verified_count", "rejected_count",
        }
        assert set(report["crypto_sizes"]) == {"public_key_b", "private_key_b", "sig_size_mean_b"}

    def test_suite_csv_headers(self, tmp_path):
        suite = tmp_path / "suite.ini"
        suite.write_text("".join(
            f"[n{n}]\ncrypto = NONE\nclients = {n}\n"
            + "".join(f"{k} = {v}\n" for k, v in FAST.items())
            for n in (2, 3)
        ))
        assert main(["--suite", str(suite), "--out", str(tmp_path / "out")]) == 0

        def header(name):
            with open(tmp_path / "out" / name, newline="") as fh:
                return next(csv.reader(fh))

        assert header("comparison.csv") == [
            "name", "dataset", "scheme", "n_clients", "blockchain", "rounds", "status",
            "initial_accuracy", "final_accuracy", "mean_accuracy", "mean_round_time_s",
            "mean_compute_time_s", "mean_simulated_latency_s", "mean_sign_ms",
            "mean_verify_ms", "mean_tx_time_s", "mean_gas_per_update", "mean_total_gas",
            "mean_overhead_ratio", "mean_verified_count", "mean_rejected_count",
            "sig_size_mean_b", "public_key_b", "private_key_b",
        ]

    def test_non_default_config_to_dict(self):
        cfg = ExperimentConfig(
            scheme=SchemeId.NONE,
            latency=0.25,
            gas_targets={**DEFAULT_GAS_TARGETS, SchemeId.PQC: 2_000_000},
        )
        assert cfg.to_dict() == {
            "name": "synth-NONE-3c-BC",
            "dataset": "synth",
            "scheme": "NONE",
            "n_clients": 3,
            "rounds": 50,
            "blockchain": True,
            "train": {
                "local_epochs": 5, "batch_size": 64, "learning_rate": 0.001,
                "optimizer": "ADAM",
            },
            "gas_targets": {"PQC": 2_000_000, "ECDSA": 188_900, "NONE": 173_650},
            "latency": 0.25,
            "master_seed": 0,
            "alpha": 0.5,
            "synth_samples": 2000,
            "synth_features": 20,
            "synth_classes": 5,
        }


def _fast_config_file(tmp_path):
    path = tmp_path / "fast.ini"
    path.write_text(
        "[experiment]\n"
        + "".join(f"{k} = {v}\n" for k, v in FAST.items())
        + "[train]\nlocal_epochs = 2\n"
    )
    return path


class TestCryptoTable:
    def test_sizes_and_trials(self):
        rows = emit_crypto_table([SchemeId.NONE], trials=3)
        (row,) = rows
        assert row["trials"] == 3
        assert (row["sig_size_b"], row["public_key_b"], row["private_key_b"]) == (32, 26, 27)
        assert row["keygen_ms"] >= 0 and row["sign_ms"] >= 0 and row["verify_ms"] >= 0

    def test_sig_size_is_the_measured_mean(self, monkeypatch):
        measured = sigsuite.CryptoTimings(SchemeId.ECDSA, 4, 1.0, 1.0, 1.0, 70.25, 174, 237)
        monkeypatch.setattr(benchcli, "measure_primitives", lambda scheme, trials: measured)
        (row,) = emit_crypto_table([SchemeId.ECDSA], trials=4)
        assert row["sig_size_b"] == 70.25
