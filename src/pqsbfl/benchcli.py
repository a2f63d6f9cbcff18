"""Benchmark command line: single runs, suite sweeps, crypto tables.

Configs live in flat INI-style files (``key = value`` under section
headers), are overridable by command-line flags, and name themselves by the
``dataset-crypto-Nc-BC|NoBC`` convention. A suite file holds many entries;
every entry runs with its own seed, ``derive_seed`` of the suite seed and
the entry's learning-relevant identity, so adding an entry never perturbs
the others and scheme variants of one setup share a model trajectory. A
suite run takes only ``--seed`` and ``--out`` from the command line (each
entry sets the rest of its experiment); every mode rejects a flag it would ignore.

Outputs are plot-ready CSV plus a full JSON report per run:

* ``<out>/<name>/report.json``  -- complete experiment report
* ``<out>/<name>/rounds.csv``   -- one row per federated round
* ``<out>/comparison.csv``      -- one summary row per suite entry; rows that
  share dataset, crypto and blockchain show client-count scaling
* ``<out>/crypto.csv``          -- primitive timings and sizes
  (``--crypto-bench``)

All digests are lowercase hex. Exit status is nonzero iff any requested
config failed validation or execution.
"""

import argparse
import configparser
import csv
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from .errors import ParseError, PqsBflError, ValidationError
from .protocol import (
    SUMMARY_FIELDS,
    ExperimentConfig,
    ExperimentReport,
    RoundMetrics,
    derive_seed,
    run_experiment,
)
from .sigsuite import CryptoTimings, SchemeId, measure_primitives

__all__ = [
    "parse_config",
    "parse_suite",
    "run_suite",
    "emit_crypto_table",
    "main",
]

ROUNDS_CSV_COLUMNS = tuple(f.name for f in fields(RoundMetrics))

_IDENTITY_COLUMNS = ("name", "dataset", "scheme", "n_clients", "blockchain", "rounds", "status")
_REPORT_COLUMNS = ("initial_accuracy", "final_accuracy")
# comparison column -> the summary field it reports, e.g. mean_total_gas -> total_gas
_SUMMARY_COLUMNS = {f if f.startswith("mean_") else f"mean_{f}": f for f in SUMMARY_FIELDS}
_CRYPTO_SIZE_COLUMNS = ("sig_size_mean_b", "public_key_b", "private_key_b")
COMPARISON_CSV_COLUMNS = (
    _IDENTITY_COLUMNS + _REPORT_COLUMNS + tuple(_SUMMARY_COLUMNS) + _CRYPTO_SIZE_COLUMNS
)

CRYPTO_CSV_COLUMNS = tuple(f.name for f in fields(CryptoTimings))


def _parser(convert, expected):
    """A ``parse(raw, where)`` that returns ``convert(raw)``, or raises a
    :class:`ParseError` naming ``where`` and quoting ``raw``."""
    def parse(raw: str, where: str):
        try:
            return convert(raw)
        except (KeyError, ValueError):
            raise ParseError(f"{where}: expected {expected}, got {raw!r}") from None
    return parse


_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}
_parse_bool = _parser(lambda raw: _BOOLS[raw.strip().lower()], "on/off")
_parse_int = _parser(int, "integer")
_parse_float = _parser(float, "number")
_parse_scheme = _parser(lambda raw: SchemeId(raw.strip()), "PQC, ECDSA or NONE")


def _field(name):
    return lambda cfg, value: replace(cfg, **{name: value})


def _train(name):
    return lambda cfg, value: replace(cfg, train=replace(cfg.train, **{name: value}))


def _gas(scheme):
    return lambda cfg, value: replace(cfg, gas_targets={**cfg.gas_targets, scheme: value})


# "section.key" -> (parser(raw, where), setter(cfg, value)); configparser
# lowercases keys, hence gas.pqc.
_KEYS = {
    "experiment.dataset": (lambda raw, where: raw.strip(), _field("dataset")),
    "experiment.crypto": (_parse_scheme, _field("scheme")),
    "experiment.clients": (_parse_int, _field("n_clients")),
    "experiment.rounds": (_parse_int, _field("rounds")),
    "experiment.blockchain": (_parse_bool, _field("blockchain")),
    "experiment.seed": (_parse_int, _field("master_seed")),
    "experiment.alpha": (_parse_float, _field("alpha")),
    "experiment.synth_samples": (_parse_int, _field("synth_samples")),
    "experiment.synth_features": (_parse_int, _field("synth_features")),
    "experiment.synth_classes": (_parse_int, _field("synth_classes")),
    "train.local_epochs": (_parse_int, _train("local_epochs")),
    "train.batch_size": (_parse_int, _train("batch_size")),
    "train.learning_rate": (_parse_float, _train("learning_rate")),
    "latency.constant": (_parse_float, _field("latency")),
    **{f"gas.{s.value.lower()}": (_parse_int, _gas(s)) for s in SchemeId},
}


def _apply(cfg: ExperimentConfig, key: str, raw: str, where: str) -> ExperimentConfig:
    """Set one ``section.key`` from its raw text; a bare key means
    ``experiment.<key>``."""
    if "." not in key:
        key = f"experiment.{key}"
    try:
        parse, setter = _KEYS[key]
    except KeyError:
        raise ParseError(f"{where}: unknown key {key!r}") from None
    return setter(cfg, parse(raw, where))


def _read_ini(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except configparser.Error as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return parser


def parse_config(path=None, overrides=None) -> ExperimentConfig:
    """Build a validated config from an optional INI file plus flag overrides.

    ``overrides`` maps a key to its flag's text, parsed as the file key is.
    Flags always win over file values and defaults fill the rest. Raises
    :class:`ParseError` for malformed input (identifying the file, section
    and key) and :class:`ValidationError` listing every violated constraint.
    """
    cfg = ExperimentConfig()
    if path is not None:
        parser = _read_ini(Path(path))
        for section in parser.sections():
            for key, raw in parser.items(section):
                cfg = _apply(cfg, f"{section}.{key}", raw, f"{path}:[{section}].{key}")

    for key, value in (overrides or {}).items():
        if value is not None:
            cfg = _apply(cfg, key, value, f"--{key}")

    problems = cfg.violations()
    if problems:
        raise ValidationError(problems)
    return cfg


def parse_suite(path, out_dir=None, base_seed=None) -> tuple:
    """Read a suite file: a ``[suite]`` section plus one section per entry.

    Returns ``(configs, out_dir)``; a file without entries is a
    :class:`ParseError`. An entry section accepts every
    ``section.key`` of a config file (``train.local_epochs``, ``gas.PQC``,
    ``latency.constant``), with a bare key meaning ``experiment.<key>``
    (``crypto = PQC``). Every entry's master seed is ``derive_seed`` of
    its seed (its own ``seed``, else ``base_seed``, else ``[suite] seed``)
    under ``"suite-entry"`` and its learning identity (dataset, client
    count, rounds), so scheme variants of one setup share the trajectory; a
    seed outside ``[0, 2**64)`` is a :class:`ValidationError`. ``out_dir``
    wins over ``[suite] out``, which wins over ``out``.
    """
    parser = _read_ini(Path(path))
    suite_seed = 0
    out = Path(out_dir) if out_dir is not None else None

    if parser.has_section("suite"):
        for key, raw in parser.items("suite"):
            where = f"{path}:[suite].{key}"
            if key == "seed":
                suite_seed = _parse_int(raw, where)
            elif key == "out":
                if out is None:
                    out = Path(raw.strip())
            else:
                raise ParseError(f"{where}: unknown key {key!r}")
    if base_seed is not None:
        suite_seed = base_seed
    if out is None:
        out = Path("out")

    configs = []
    names = set()
    for section in parser.sections():
        if section == "suite":
            continue
        cfg = replace(ExperimentConfig(), master_seed=suite_seed)
        for key, raw in parser.items(section):
            cfg = _apply(cfg, key, raw, f"{path}:[{section}].{key}")

        # Only the seed can break a default config's rules; derive_seed would fold it.
        problems = replace(ExperimentConfig(), master_seed=cfg.master_seed).violations()
        if problems:
            raise ValidationError([f"{path}:[{section}]: {p}" for p in problems])
        identity = f"{cfg.dataset_label()}-{cfg.n_clients}c-{cfg.rounds}r"
        cfg = replace(cfg, master_seed=derive_seed(cfg.master_seed, "suite-entry", identity))
        if cfg.name() in names:
            raise ValidationError([f"duplicate configuration name {cfg.name()!r}"])
        names.add(cfg.name())
        configs.append(cfg)

    if not configs:
        raise ParseError(f"{path}: no suite entries")
    return configs, out


def _write_csv(path: Path, columns, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])


def write_report_files(report: ExperimentReport, out_dir: Path):
    """Write ``report.json`` and ``rounds.csv`` for one finished run. A NaN
    or infinite value is a :class:`ValueError` before any file is written,
    since JSON has no spelling for it."""
    text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True, allow_nan=False)
    run_dir = out_dir / report.config.name()
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "report.json").write_text(text + "\n")
    _write_csv(
        run_dir / "rounds.csv",
        ROUNDS_CSV_COLUMNS,
        [m.to_dict() for m in report.rounds],
    )
    return run_dir


def _comparison_row(cfg: ExperimentConfig, report=None, error=None) -> dict:
    row = {c: "" for c in COMPARISON_CSV_COLUMNS}
    row.update(
        name=cfg.name(),
        dataset=cfg.dataset_label(),
        scheme=cfg.scheme.value,
        n_clients=cfg.n_clients,
        blockchain="BC" if cfg.blockchain else "NoBC",
        rounds=cfg.rounds,
        status="ok" if error is None else f"error: {error}",
    )
    if report is None:
        return row
    row.update({c: getattr(report, c) for c in _REPORT_COLUMNS})
    row.update({c: report.summary[f] for c, f in _SUMMARY_COLUMNS.items()})
    row.update({c: report.crypto_sizes[c] for c in _CRYPTO_SIZE_COLUMNS})
    return row


def run_suite(configs, out_dir: Path):
    """Run every suite entry in order; failures don't stop the rest.

    Returns ``({name: comparison row}, {name: report})``, a failed entry
    having a row whose ``status`` is not ``"ok"`` and no report; writes
    per-config report files and the top-level ``comparison.csv``.
    """
    rows = {}
    reports = {}
    for cfg in configs:
        try:
            report, error = run_experiment(cfg), None
        except PqsBflError as exc:
            report, error = None, exc
        rows[cfg.name()] = _comparison_row(cfg, report, error)
        if report is not None:
            reports[cfg.name()] = report
            write_report_files(report, out_dir)

    _write_csv(out_dir / "comparison.csv", COMPARISON_CSV_COLUMNS, rows.values())
    return rows, reports


def emit_crypto_table(schemes, trials: int = 100) -> list:
    """One ``crypto.csv`` row per scheme (default 100 trials): the fields of
    its :class:`CryptoTimings`, with the scheme as its name."""
    timings = [measure_primitives(scheme, trials=trials) for scheme in schemes]
    return [{**asdict(t), "scheme": t.scheme.value} for t in timings]


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqsbfl",
        argument_default=argparse.SUPPRESS,
        description="Signed federated learning benchmark: single runs, "
        "suite sweeps, and crypto primitive tables.",
    )
    parser.add_argument("--config", metavar="PATH", help="INI config file")
    parser.add_argument("--dataset", metavar="{synth|csv:<path>}")
    parser.add_argument("--crypto", metavar="{PQC|ECDSA|NONE}")
    parser.add_argument("--clients", metavar="N")
    parser.add_argument("--rounds", metavar="N")
    parser.add_argument("--blockchain", metavar="{on|off}")
    parser.add_argument("--seed", metavar="U64")
    parser.add_argument("--out", metavar="DIR", help="output directory (default: out)")
    parser.add_argument(
        "--suite", metavar="PATH",
        help="suite INI file; only --seed and --out may go with it",
    )
    parser.add_argument(
        "--crypto-bench",
        action="store_true",
        help="measure keygen/sign/verify instead of running an experiment",
    )
    parser.add_argument("--trials", metavar="N", help="default: 100")
    return parser


# The flags each mode reads: --suite selects its mode, else --crypto-bench,
# else the command is one run. The parser leaves out every flag not given,
# and a mode rejects any given flag it does not read.
_MODE_FLAGS = {
    "suite": ("seed", "out"),
    "crypto_bench": ("crypto", "trials", "out"),
    "run": ("config", "dataset", "crypto", "clients", "rounds", "blockchain", "seed", "out"),
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def main(argv=None) -> int:
    args = vars(_build_arg_parser().parse_args(argv))  # only the flags given
    mode = "suite" if "suite" in args else "crypto_bench" if "crypto_bench" in args else "run"
    out_dir = Path(args.get("out") or "out")  # each mode creates it before any work

    try:
        reads = _MODE_FLAGS[mode]
        ignored = [_flag(dest) for dest in args if dest != mode and dest not in reads]
        if ignored:
            allowed = ", ".join(map(_flag, reads[:-1])) + " and " + _flag(reads[-1])
            who = "a run" if mode == "run" else _flag(mode)
            raise ParseError(f"{who} takes only {allowed}, got {' '.join(ignored)}")

        if mode == "suite":
            seed = _parse_int(args["seed"], "--seed") if "seed" in args else None
            configs, out_dir = parse_suite(args["suite"], args.get("out"), seed)
            out_dir.mkdir(parents=True, exist_ok=True)
            rows, _ = run_suite(configs, out_dir)
            for name, row in rows.items():
                print(f"{name}: {row['status']}")
            return 0 if all(row["status"] == "ok" for row in rows.values()) else 1

        if mode == "crypto_bench":
            trials = _parse_int(args.get("trials", "100"), "--trials")
            if trials < 1:
                raise ValidationError([f"--trials must be >= 1, got {trials}"])
            schemes = ([_parse_scheme(args["crypto"], "--crypto")] if "crypto" in args
                       else list(SchemeId))
            out_dir.mkdir(parents=True, exist_ok=True)
            rows = emit_crypto_table(schemes, trials=trials)
            _write_csv(out_dir / "crypto.csv", CRYPTO_CSV_COLUMNS, rows)
            for row in rows:
                print(
                    f"{row['scheme']:>5}: keygen {row['keygen_ms']:.3f} ms  "
                    f"sign {row['sign_ms']:.3f} ms  verify {row['verify_ms']:.3f} ms  "
                    f"sig {row['sig_size_b']:.1f} B"
                )
            return 0

        # Every other flag a run reads names the config key it overrides.
        overrides = {k: v for k, v in args.items() if k not in ("config", "out")}
        cfg = parse_config(args.get("config"), overrides)
        out_dir.mkdir(parents=True, exist_ok=True)
        report = run_experiment(cfg)
        write_report_files(report, out_dir)
        print(
            f"{cfg.name()}: final accuracy {report.final_accuracy:.4f}, "
            f"mean round time {report.summary['round_time_s']:.3f} s, "
            f"gas/round {report.summary['total_gas']:.0f}"
        )
        return 0
    except (PqsBflError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
