"""Command-line entry point.

Subcommands:

* ``simulate`` - run a full multi-party session in one process,
* ``role``     - run a single role over TCP for multi-process sessions,
* ``compare``  - the cross-validated method comparison table,
* ``bench``    - protocol timing and message accounting per party count.

Every subcommand reads every :class:`SessionConfig` field from a flag or a
JSON config file (``--config``); ``fixed_point`` (an object of ``l`` and
``f``) is config-only.  A config may also carry the other flags by their
long names, and a role's ``endpoints``; a key that no subcommand reads is a
data error.  Flags override config values, and ``SessionConfig`` supplies
every default.  Exit codes: 0 success, 1 usage error, 2 data error, 3
protocol error.  ``role`` mode refuses ``standardize``, which would scale
each provider's rows by its own deviations.  In ``role`` mode every error
raised once the role runs is a protocol error that names its phase and the
party, as ``protocol aborted in phase N: party P: ...``; a malformed payload
also names its message type and sender.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .datasets import Dataset, load_csv, partition_horizontal, save_csv
from .datasets import standardize_features, writing
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
from .privacy import assert_privacy, message_counts_by_type
from .protocol import (
    METHOD_SS,
    SERVER,
    ConsumerRole,
    ProviderRole,
    ServerRole,
    SessionConfig,
    run_session,
)
from .transport import TcpEndpoint

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROTOCOL = 3

# SessionConfig fields read from a flag or the config, besides method, parties and k.
SESSION_SETTINGS = ("fixed_point", "key_bits", "allow_test_key", "seed", "timeout")
# The type of each config key the CLI reads itself.  SessionConfig checks the
# session settings, and _endpoint_map the endpoints.
CONFIG_TYPES = {
    "input": str, "label": str, "delimiter": str, "no_header": bool, "standardize": bool,
    "methods": str, "folds": int, "task": str,
}
# Every key some subcommand reads from a config file.
CONFIG_KEYS = frozenset({"method", "parties", "k", *SESSION_SETTINGS, "endpoints", *CONFIG_TYPES})


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
        default=None,
        help="comma list from {centralized,separate,pppca-he,pppca-ss} or 'all' (default)",
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
        with open(path, encoding="utf-8-sig") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise DataError(f"config {path} must hold a JSON object")
    unknown = sorted(cfg.keys() - CONFIG_KEYS)
    if unknown:
        raise DataError(f"config {path}: no subcommand reads the key(s) {', '.join(unknown)}")
    return cfg


def _setting(args, config: dict, name: str, default=None):
    # `is` comparisons: 0 is a meaningful flag value and must not read as unset.
    value = getattr(args, name, None)
    if value is None or value is False:
        value = config.get(name, default if value is None else value)
        kind = CONFIG_TYPES.get(name)
        if kind is not None and value is not None and type(value) is not kind:
            raise DataError(f"config {name} must be of type {kind.__name__}, got {value!r}")
    return value


def _session_settings(args, config: dict, parties=2) -> dict:
    """The :class:`SessionConfig` fields a flag or the config sets; the one
    place every subcommand's session comes from.  Beyond ``SessionConfig``'s
    defaults, the CLI defaults ``method`` to ss and ``parties`` to the given
    value."""
    settings = {"method": METHOD_SS, "parties": parties}
    for name in ("method", "parties", "k", *SESSION_SETTINGS):
        value = _setting(args, config, name)
        if value is not None:
            settings[name] = value
    if "k" not in settings:
        raise _UsageError("--k is required (flag or config)")
    if "fixed_point" in settings:
        try:
            settings["fixed_point"] = FixedPointConfig(**settings["fixed_point"])
        except (TypeError, ValueError) as exc:
            raise DataError(f"config fixed_point needs l and f: {exc}") from exc
    return settings


def _load_dataset(args, config: dict) -> Dataset:
    path = _setting(args, config, "input")
    if path is None:
        raise _UsageError("an --input CSV is required")
    ds = load_csv(
        path,
        label_column=_setting(args, config, "label"),
        header=not bool(_setting(args, config, "no_header", False)),
        delimiter=_setting(args, config, "delimiter") or ",",
    )
    if bool(_setting(args, config, "standardize", False)):
        ds = standardize_features(ds)
    return ds


def _check_out(path: str | None):
    """Fail before any work if ``path`` is given and cannot be written.  It
    is opened to append, so a file already there keeps its contents; one
    the check made is removed again, so a run that fails later leaves none."""
    if path:
        made = not os.path.lexists(path)
        with writing(path, "a"):
            pass
        if made:
            os.remove(path)


def _save_matrix(path: str | None, matrix: np.ndarray, prefix: str, what: str):
    """Write ``matrix`` as CSV, its columns named prefix1, prefix2, ..., if a path is given."""
    if path:
        names = [f"{prefix}{i + 1}" for i in range(matrix.shape[1])]
        save_csv(Dataset(matrix, columns=names), path)
        print(f"{what} written to {path}")


def _cmd_simulate(args) -> int:
    config = _load_config(args.config)
    cfg = SessionConfig(**_session_settings(args, config))
    ds = _load_dataset(args, config)
    _check_out(args.out)
    parts = partition_horizontal(ds, cfg.parties, cfg.seed)
    result = run_session(cfg, [p.features for p in parts])
    violations = assert_privacy(result.transcript, cfg)
    print(f"method      : {cfg.method}")
    print(f"providers   : {cfg.parties}")
    print(f"rows x cols : {result.sample_count} x {ds.cols}")
    print(f"k           : {cfg.k}")
    print(f"eigenvalues : {np.array2string(result.eigenvalues, precision=4)}")
    print(f"total time  : {result.timings['total']:.2f}s")
    server_times = ", ".join(
        f"{name.removeprefix('server.')} {seconds:.2f}s"
        for name, seconds in result.timings.items()
        if name.startswith("server.")
    )
    print(f"server time : {server_times}")
    print("messages    : " + json.dumps(message_counts_by_type(result.transcript)))
    print(f"privacy     : {'ok' if not violations else violations}")
    if args.show_transcript:
        for msg in result.transcript.entries():
            print(
                f"  phase {msg.phase}: {msg.msg_type.name} "
                f"{msg.sender} -> {msg.receiver} ({len(msg.payload)} bytes)"
            )
    _save_matrix(args.out, result.reduced, "pc", "reduced matrix")
    return EXIT_OK


def _parse_endpoint(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise DataError(f"endpoint {address!r} must be host:port, with a port in [0, 65535]")
    return host, int(port)


def _endpoint_map(config: dict, cfg: SessionConfig) -> dict[int, tuple[str, int]]:
    raw = config.get("endpoints")
    if not isinstance(raw, dict):
        raise DataError("config must map 'endpoints' to {name: host:port}")
    mapping = {}
    for name, address in raw.items():
        index = name.removeprefix("provider-")
        if name == "server":
            party = SERVER
        elif name == "consumer":
            party = cfg.consumer
        elif index != name and index.isascii() and index.isdecimal():
            party = int(index)
            if party not in cfg.providers:
                raise DataError(f"endpoint {name!r} out of range for {cfg.parties} parties")
        else:
            raise DataError(f"unknown endpoint name {name!r}")
        if not isinstance(address, str):
            raise DataError(f"endpoint {name!r} must be a 'host:port' string, got {address!r}")
        if party in mapping:
            raise DataError(f"endpoint {name!r} names party {party}, which another name maps")
        mapping[party] = _parse_endpoint(address)
    expected = {SERVER, cfg.consumer, *cfg.providers}
    missing = expected - mapping.keys()
    if missing:
        raise DataError(f"config endpoints missing parties {sorted(missing)}")
    return mapping


def _cmd_role(args) -> int:
    config = _load_config(args.config)
    if not config:
        raise _UsageError("role mode needs --config with an 'endpoints' map")
    if _setting(args, config, "standardize", False):
        raise _UsageError("role mode cannot standardize: each provider would scale its rows "
                          "by its own standard deviations, not the joint data's")
    cfg = SessionConfig(**_session_settings(args, config))
    for override in args.connect:
        name, _, address = override.partition("=")
        if not name or not address:
            raise _UsageError(f"--connect expects NAME=HOST:PORT, got {override!r}")
        if isinstance(config.setdefault("endpoints", {}), dict):  # else _endpoint_map rejects it
            config["endpoints"][name] = address
    endpoints = _endpoint_map(config, cfg)

    if args.role == "provider":
        if args.party_index is None:
            raise _UsageError("--party-index is required for providers")
        party = args.party_index
        if party not in cfg.providers:
            raise _UsageError(f"--party-index must lie in [1, {cfg.parties}]")
        ds = _load_dataset(args, config)
        role = ProviderRole(party, ds.features, cfg)
    elif args.role == "server":
        party = SERVER
        role = ServerRole(cfg)
    else:
        party = cfg.consumer
        role = ConsumerRole(cfg)
    if args.role != "provider":  # a provider writes nothing
        _check_out(args.out)

    listen = (
        _parse_endpoint(args.listen) if args.listen else endpoints[party]
    )
    try:
        ep = TcpEndpoint(party, listen, timeout=cfg.timeout)
    except OSError as exc:
        raise DataError(f"cannot listen on {listen[0]}:{listen[1]}: {exc}") from exc
    ep.set_peers(endpoints)
    try:
        role.play(ep)
    finally:
        ep.close()

    if args.role == "server":
        print(f"eigenvalues: {np.array2string(role.eigenvalues, precision=4)}")
        _save_matrix(args.out, role.transfer, "ev", "transfer matrix")
    elif args.role == "consumer":
        print(f"received reduced matrix: {role.reduced.shape[0]} x {role.reduced.shape[1]}")
        _save_matrix(args.out, role.reduced, "pc", "reduced matrix")
    else:
        print(f"provider {party} finished")
    return EXIT_OK


def _cmd_compare(args) -> int:
    config = _load_config(args.config)
    ds = _load_dataset(args, config)
    if ds.labels is None:
        raise _UsageError("compare needs --label naming the target column")
    settings = _session_settings(args, config)
    del settings["method"]  # compare runs every method it lists
    raw = _setting(args, config, "methods", "all")
    methods = list(METHODS) if raw == "all" else [m.strip() for m in raw.split(",")]
    _check_out(args.out)
    reports = compare(
        ds,
        methods=methods,
        folds=int(_setting(args, config, "folds", 5)),
        task=_setting(args, config, "task"),
        **settings,
    )
    sys.stdout.write(render_report(reports))
    if args.out:
        with writing(args.out) as fh:
            fh.write(reports_to_csv(reports))
        print(f"report written to {args.out}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    config = _load_config(args.config)
    ds = _load_dataset(args, config)
    settings = _session_settings(args, config, parties="2,3,4")
    raw = settings.pop("parties")
    try:
        parties_list = [int(p) for p in (raw if isinstance(raw, list) else str(raw).split(","))]
    except (TypeError, ValueError):
        raise _UsageError(f"--parties must be a list of ints, got {raw!r}")
    results = bench(ds, parties_list, **settings)
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
