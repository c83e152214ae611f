"""Command-line entry point.

Subcommands:

* ``simulate`` - run a full multi-party session in one process,
* ``role``     - run a single role over TCP for multi-process sessions,
* ``compare``  - the cross-validated method comparison table,
* ``bench``    - protocol timing and message accounting per party count.

A JSON config file (``--config``) may carry any session field; explicit
command-line flags override config values.  Exit codes: 0 success, 1 usage
error, 2 data error, 3 protocol error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import paillier
from .datasets import Dataset, load_csv, partition_horizontal, standardize_features
from .encoding import FixedPointConfig
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    MatrixValidationError,
    PPCAError,
)
from .evaluation import (
    METHODS,
    bench,
    compare,
    render_bench,
    render_report,
    reports_to_csv,
)
from .messages import Transcript
from .privacy import assert_privacy, message_counts_by_type
from .protocol import (
    SERVER,
    ConsumerRole,
    ProviderRole,
    ServerRole,
    SessionConfig,
    consumer_index,
    run_session,
)
from .transport import DEFAULT_TIMEOUT, TcpEndpoint

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROTOCOL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="pppca",
        description="Joint PCA over horizontally partitioned data "
        "without sharing plaintext rows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_method=True):
        p.add_argument("--config", help="JSON file with session settings")
        p.add_argument("--input", help="CSV file of features (plus optional label)")
        p.add_argument("--label", help="name of the label column to split out")
        p.add_argument("--delimiter", default=None, help="CSV delimiter (default ,)")
        p.add_argument(
            "--no-header", action="store_true", help="input CSV has no header row"
        )
        if with_method:
            p.add_argument("--method", choices=["he", "ss"], default=None)
        p.add_argument("--k", type=int, default=None, help="output dimension")
        p.add_argument("--seed", type=int, default=None, help="reproducible run seed")
        p.add_argument("--key-bits", type=int, default=None, dest="key_bits")
        p.add_argument(
            "--allow-test-key",
            action="store_true",
            help="permit insecure 512-bit keys (tests only)",
        )
        p.add_argument("--timeout", type=float, default=None)
        p.add_argument(
            "--standardize",
            action="store_true",
            help="divide features by their std before PCA (plaintext prep)",
        )

    sim = sub.add_parser("simulate", help="full multi-party run in one process")
    add_common(sim)
    sim.add_argument("--parties", type=int, default=None, help="provider count")
    sim.add_argument("--out", help="write the reduced matrix as CSV here")
    sim.add_argument(
        "--show-transcript", action="store_true", help="print every message"
    )

    role = sub.add_parser("role", help="run one role of a networked session")
    add_common(role)
    role.add_argument(
        "--role", required=True, choices=["provider", "server", "consumer"]
    )
    role.add_argument(
        "--party-index", type=int, default=None, help="provider index (1-based)"
    )
    role.add_argument("--parties", type=int, default=None)
    role.add_argument("--listen", help="override own host:port from the config")
    role.add_argument(
        "--connect",
        action="append",
        default=[],
        metavar="NAME=HOST:PORT",
        help="override a peer address from the config (repeatable)",
    )
    role.add_argument("--out", help="consumer: reduced CSV; server: transfer CSV")

    cmp_p = sub.add_parser("compare", help="centralized vs separate vs private PCA")
    add_common(cmp_p, with_method=False)
    cmp_p.add_argument("--parties", type=int, default=None)
    cmp_p.add_argument(
        "--methods",
        default="all",
        help="comma list from {centralized,separate,pppca-he,pppca-ss} or 'all'",
    )
    cmp_p.add_argument("--folds", type=int, default=None)
    cmp_p.add_argument("--task", choices=["regression", "classification"])
    cmp_p.add_argument("--out", help="write the report as CSV here")

    bench_p = sub.add_parser("bench", help="timing sweep over party counts")
    add_common(bench_p)
    bench_p.add_argument(
        "--parties", default=None, help="comma list of party counts, e.g. 2,3,4"
    )

    return parser


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise DataError(f"config {path} must hold a JSON object")
    return cfg


def _setting(args, config: dict, name: str, default=None):
    # `is` comparisons: 0 is a meaningful flag value and must not read as unset.
    value = getattr(args, name, None)
    if value is None or value is False:
        value = config.get(name, default if value is None else value)
    return value


def _session_kwargs(args, config: dict) -> dict:
    fp = config.get("fixed_point", {})
    return {
        "fixed_point": FixedPointConfig(**fp) if fp else FixedPointConfig(),
        "key_bits": int(_setting(args, config, "key_bits", paillier.DEFAULT_KEY_BITS)),
        "allow_test_key": bool(_setting(args, config, "allow_test_key", False)),
        "seed": _setting(args, config, "seed"),
        "timeout": float(_setting(args, config, "timeout", DEFAULT_TIMEOUT)),
    }


def _load_dataset(args, config: dict, need_input=True) -> Dataset | None:
    path = _setting(args, config, "input")
    if path is None:
        if need_input:
            raise _UsageError("an --input CSV is required")
        return None
    ds = load_csv(
        path,
        label_column=_setting(args, config, "label"),
        header=not bool(_setting(args, config, "no_header", False)),
        delimiter=_setting(args, config, "delimiter") or ",",
    )
    if bool(_setting(args, config, "standardize", False)):
        ds = standardize_features(ds)
    return ds


def _write_matrix_csv(path: str, matrix: np.ndarray, prefix: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"{prefix}{i + 1}" for i in range(matrix.shape[1])) + "\n")
        for row in np.atleast_2d(matrix):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _cmd_simulate(args) -> int:
    config = _load_config(args.config)
    parties = int(_setting(args, config, "parties", 2))
    method = _setting(args, config, "method", "ss")
    k = _setting(args, config, "k")
    if k is None:
        raise _UsageError("--k is required")
    cfg = SessionConfig(
        method=method, parties=parties, k=int(k), **_session_kwargs(args, config)
    )
    ds = _load_dataset(args, config)
    parts = partition_horizontal(ds, parties, cfg.seed)
    result = run_session(cfg, [p.features for p in parts])
    violations = assert_privacy(result.transcript, cfg)
    print(f"method      : {cfg.method}")
    print(f"providers   : {cfg.parties}")
    print(f"rows x cols : {result.sample_count} x {ds.cols}")
    print(f"k           : {cfg.k}")
    print(f"eigenvalues : {np.array2string(result.eigenvalues, precision=4)}")
    print(f"total time  : {result.timings['total']:.2f}s")
    print("messages    : " + json.dumps(message_counts_by_type(result.transcript)))
    print(f"privacy     : {'ok' if not violations else violations}")
    if args.show_transcript:
        for msg in result.transcript.entries():
            print(
                f"  phase {msg.phase}: {msg.msg_type.name} "
                f"{msg.sender} -> {msg.receiver} ({len(msg.payload)} bytes)"
            )
    if args.out:
        _write_matrix_csv(args.out, result.reduced, "pc")
        print(f"reduced matrix written to {args.out}")
    return EXIT_OK


def _parse_endpoint(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise DataError(f"endpoint {address!r} must be host:port")
    return host, int(port)


def _endpoint_map(config: dict, parties: int) -> dict[int, tuple[str, int]]:
    raw = config.get("endpoints")
    if not isinstance(raw, dict):
        raise DataError("config must map 'endpoints' to {name: host:port}")
    mapping = {}
    for name, address in raw.items():
        if name == "server":
            party = SERVER
        elif name == "consumer":
            party = consumer_index(parties)
        elif name.startswith("provider-"):
            party = int(name.split("-", 1)[1])
            if not 1 <= party <= parties:
                raise DataError(f"endpoint {name!r} out of range for {parties} parties")
        else:
            raise DataError(f"unknown endpoint name {name!r}")
        mapping[party] = _parse_endpoint(address)
    expected = {SERVER, consumer_index(parties), *range(1, parties + 1)}
    missing = expected - mapping.keys()
    if missing:
        raise DataError(f"config endpoints missing parties {sorted(missing)}")
    return mapping


def _cmd_role(args) -> int:
    config = _load_config(args.config)
    if not config:
        raise _UsageError("role mode needs --config with an 'endpoints' map")
    parties = int(_setting(args, config, "parties", 2))
    method = _setting(args, config, "method", "ss")
    k = _setting(args, config, "k")
    if k is None:
        raise _UsageError("--k is required (flag or config)")
    cfg = SessionConfig(
        method=method, parties=parties, k=int(k), **_session_kwargs(args, config)
    )
    for override in args.connect:
        name, _, address = override.partition("=")
        if not name or not address:
            raise _UsageError(f"--connect expects NAME=HOST:PORT, got {override!r}")
        config.setdefault("endpoints", {})[name] = address
    endpoints = _endpoint_map(config, parties)

    if args.role == "provider":
        if args.party_index is None:
            raise _UsageError("--party-index is required for providers")
        party = args.party_index
        if not 1 <= party <= parties:
            raise _UsageError(f"--party-index must lie in [1, {parties}]")
        ds = _load_dataset(args, config)
        role = ProviderRole(party, ds.features, cfg)
    elif args.role == "server":
        party = SERVER
        role = ServerRole(cfg)
    else:
        party = consumer_index(parties)
        role = ConsumerRole(cfg)

    listen = (
        _parse_endpoint(args.listen) if args.listen else endpoints[party]
    )
    ep = TcpEndpoint(party, listen, Transcript(), timeout=cfg.timeout)
    ep.set_peers(endpoints)
    try:
        role.run(ep)
    finally:
        ep.close()

    if args.role == "server":
        print(f"eigenvalues: {np.array2string(role.eigenvalues, precision=4)}")
        if args.out:
            _write_matrix_csv(args.out, role.transfer, "ev")
            print(f"transfer matrix written to {args.out}")
    elif args.role == "consumer":
        print(f"received reduced matrix: {role.reduced.shape[0]} x {role.reduced.shape[1]}")
        if args.out:
            _write_matrix_csv(args.out, role.reduced, "pc")
            print(f"reduced matrix written to {args.out}")
    else:
        print(f"provider {party} finished")
    return EXIT_OK


def _cmd_compare(args) -> int:
    config = _load_config(args.config)
    ds = _load_dataset(args, config)
    if ds.labels is None:
        raise _UsageError("compare needs --label naming the target column")
    parties = int(_setting(args, config, "parties", 2))
    k = _setting(args, config, "k")
    if k is None:
        raise _UsageError("--k is required")
    raw = _setting(args, config, "methods", "all")
    methods = list(METHODS) if raw == "all" else [m.strip() for m in raw.split(",")]
    session = _session_kwargs(args, config)
    reports = compare(
        ds,
        parties=parties,
        k=int(k),
        methods=methods,
        seed=session["seed"] if session["seed"] is not None else 0,
        folds=int(_setting(args, config, "folds", 5)),
        task=_setting(args, config, "task"),
        key_bits=session["key_bits"],
        allow_test_key=session["allow_test_key"],
        fixed_point=session["fixed_point"],
        timeout=session["timeout"],
    )
    sys.stdout.write(render_report(reports))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(reports_to_csv(reports))
        print(f"report written to {args.out}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    config = _load_config(args.config)
    ds = _load_dataset(args, config)
    raw = _setting(args, config, "parties", "2,3,4")
    try:
        parties_list = [int(p) for p in str(raw).split(",")]
    except ValueError:
        raise _UsageError(f"--parties must be a comma list of ints, got {raw!r}")
    method = _setting(args, config, "method", "ss")
    k = _setting(args, config, "k")
    if k is None:
        raise _UsageError("--k is required")
    session = _session_kwargs(args, config)
    results = bench(
        ds,
        parties_list,
        method=method,
        k=int(k),
        seed=session["seed"],
        key_bits=session["key_bits"],
        allow_test_key=session["allow_test_key"],
        timeout=session["timeout"],
    )
    sys.stdout.write(render_bench(results))
    if any(not r.counts_match for r in results):
        print("message accounting MISMATCH against the algorithm", file=sys.stderr)
        return EXIT_PROTOCOL
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "role": _cmd_role,
    "compare": _cmd_compare,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        print("run 'pppca --help' for usage", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, MatrixValidationError, DimensionError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PPCAError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL


if __name__ == "__main__":
    sys.exit(main())
