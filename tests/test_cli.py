import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from pppca import cli
from pppca.cli import EXIT_DATA, EXIT_OK, EXIT_PROTOCOL, EXIT_USAGE, main
from pppca.datasets import (
    Dataset,
    load_csv,
    make_wine_like,
    partition_horizontal,
    save_csv,
    standardize_features,
)
from pppca.errors import DataError
from pppca.messages import MsgType, ProtocolMessage, encode_real_matrix, make_step, serialize
from pppca.protocol import SessionConfig, run_session

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def wine_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "wine.csv"
    save_csv(make_wine_like(rows=120), path, delimiter=";")
    return str(path)


def test_simulate_smoke(wine_csv, tmp_path, capsys):
    out = tmp_path / "reduced.csv"
    rc = main(
        [
            "simulate",
            "--method",
            "ss",
            "--parties",
            "3",
            "--k",
            "4",
            "--input",
            wine_csv,
            "--label",
            "quality",
            "--delimiter",
            ";",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert rc == EXIT_OK
    stdout = capsys.readouterr().out
    assert "privacy     : ok" in stdout
    reduced = load_csv(out)
    assert reduced.features.shape == (120, 4)


def test_simulate_he_prints_server_times(wine_csv, capsys):
    argv = [
        "simulate", "--method", "he", "--k", "3", "--input", wine_csv,
        "--label", "quality", "--delimiter", ";", "--seed", "4", "--key-bits", "512",
    ]
    assert main(argv) == EXIT_USAGE  # 512-bit keys need --allow-test-key
    assert "512-bit keys are test-only" in capsys.readouterr().err
    assert main(argv + ["--allow-test-key"]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert re.search(r"^server time : keygen \d+\.\d\ds, eigendecomposition \d+\.\d\ds$", stdout, re.M)
    assert "privacy     : ok" in stdout


def test_simulate_standardize_runs_the_session_on_standardized_features(
    wine_csv, tmp_path, capsys
):
    out = tmp_path / "reduced.csv"
    argv = ["simulate", "--input", wine_csv, "--label", "quality", "--delimiter", ";",
            "--k", "3", "--seed", "2", "--standardize", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert "privacy     : ok" in capsys.readouterr().out
    ds = standardize_features(load_csv(wine_csv, label_column="quality", delimiter=";"))
    parts = partition_horizontal(ds, 2, 2)
    expected = run_session(SessionConfig(method="ss", parties=2, k=3, seed=2),
                           [p.features for p in parts])
    assert np.array_equal(load_csv(out).features, expected.reduced)


def test_the_module_entry_point_runs_the_cli(wine_csv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "pppca", *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)

    done = run("simulate", "--input", wine_csv, "--label", "quality", "--delimiter", ";",
               "--k", "2", "--seed", "1")
    assert done.returncode == EXIT_OK, done.stderr[-2000:]
    assert "privacy     : ok" in done.stdout
    bare = run()
    assert bare.returncode == EXIT_USAGE
    assert "the following arguments are required: command" in bare.stderr


def test_simulate_transcript_listing(wine_csv, capsys):
    rc = main(
        [
            "simulate",
            "--method",
            "ss",
            "--k",
            "2",
            "--input",
            wine_csv,
            "--label",
            "quality",
            "--delimiter",
            ";",
            "--seed",
            "3",
            "--show-transcript",
        ]
    )
    assert rc == EXIT_OK
    stdout = capsys.readouterr().out
    assert "SHARE_BUNDLE 1 -> 2" in stdout


def test_compare_all_methods_report(wine_csv, tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(
        [
            "compare",
            "--input",
            wine_csv,
            "--label",
            "quality",
            "--delimiter",
            ";",
            "--k",
            "4",
            "--methods",
            "all",
            "--parties",
            "2",
            "--seed",
            "2",
            "--key-bits",
            "512",
            "--allow-test-key",
            "--out",
            str(out),
        ]
    )
    assert rc == EXIT_OK
    stdout = capsys.readouterr().out
    for method in ("centralized", "separate", "pppca-he", "pppca-ss"):
        assert method in stdout
    csv_text = out.read_text()
    assert csv_text.count("\n") == 5  # header + four methods


def test_bench_runs_and_accounts(wine_csv, capsys):
    rc = main(
        [
            "bench",
            "--input",
            wine_csv,
            "--label",
            "quality",
            "--delimiter",
            ";",
            "--parties",
            "2,3,4",
            "--method",
            "ss",
            "--k",
            "3",
            "--seed",
            "5",
        ]
    )
    assert rc == EXIT_OK
    stdout = capsys.readouterr().out
    assert stdout.count("exact") == 3


def test_config_file_with_flag_override(wine_csv, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "method": "ss",
                "parties": 2,
                "k": 2,
                "seed": 7,
                "input": wine_csv,
                "label": "quality",
                "delimiter": ";",
                "fixed_point": {"l": 64, "f": 24},
            }
        )
    )
    rc = main(["simulate", "--config", str(config), "--k", "3"])
    assert rc == EXIT_OK
    assert "k           : 3" in capsys.readouterr().out  # flag beat config


def test_config_file_with_a_byte_order_mark(wine_csv, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    settings = {"method": "ss", "k": 2, "input": wine_csv, "label": "quality", "delimiter": ";"}
    config.write_bytes(("\ufeff" + json.dumps(settings)).encode("utf-8"))
    assert main(["simulate", "--config", str(config)]) == EXIT_OK
    assert "k           : 2" in capsys.readouterr().out


def test_exit_codes(wine_csv, tmp_path):
    assert main(["simulate", "--input", wine_csv]) == EXIT_USAGE  # no --k
    assert main(["nonsense"]) == EXIT_USAGE
    assert main(["simulate", "--method", "ss", "--k", "2", "--input", "/absent.csv"]) == EXIT_DATA
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,oops\n")
    assert main(["simulate", "--method", "ss", "--k", "1", "--input", str(bad)]) == EXIT_DATA
    # k >= d is a configuration problem surfaced before any crypto runs.
    assert (
        main(
            [
                "simulate",
                "--method",
                "ss",
                "--k",
                "99",
                "--input",
                wine_csv,
                "--label",
                "quality",
                "--delimiter",
                ";",
            ]
        )
        == EXIT_USAGE
    )
    # A receive that may not wait would abort a live session.
    for timeout in ("0", "-1", "nan"):
        argv = ["simulate", "--method", "ss", "--k", "2", "--input", wine_csv, "--timeout", timeout]
        assert main(argv + ["--label", "quality", "--delimiter", ";"]) == EXIT_USAGE
    # A negative seed would reach numpy's default_rng.
    assert main(["simulate", "--k", "2", "--input", wine_csv, "--seed", "-1"]) == EXIT_USAGE


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_role_mode_over_loopback(wine_csv, tmp_path, capsys):
    """Four role processes, here as threads, complete a TCP session."""
    wine = load_csv(wine_csv, label_column="quality", delimiter=";")
    provider_csvs = []
    halves = np.array_split(np.arange(wine.rows), 2)
    for i, idx in enumerate(halves):
        path = tmp_path / f"part{i + 1}.csv"
        save_csv(wine.take(idx), path)
        provider_csvs.append(str(path))

    endpoints = {
        "server": f"127.0.0.1:{_free_port()}",
        "provider-1": f"127.0.0.1:{_free_port()}",
        "provider-2": f"127.0.0.1:{_free_port()}",
        "consumer": f"127.0.0.1:{_free_port()}",
    }
    config = tmp_path / "session.json"
    config.write_text(
        json.dumps(
            {
                "method": "ss",
                "parties": 2,
                "k": 3,
                "seed": 11,
                "timeout": 20.0,
                "endpoints": endpoints,
            }
        )
    )
    reduced_out = tmp_path / "reduced.csv"

    invocations = [
        ["role", "--role", "server", "--config", str(config)],
        [
            "role",
            "--role",
            "provider",
            "--party-index",
            "1",
            "--config",
            str(config),
            "--input",
            provider_csvs[0],
            "--label",
            "quality",
        ],
        [
            "role",
            "--role",
            "provider",
            "--party-index",
            "2",
            "--config",
            str(config),
            "--input",
            provider_csvs[1],
            "--label",
            "quality",
        ],
        [
            "role",
            "--role",
            "consumer",
            "--config",
            str(config),
            "--out",
            str(reduced_out),
        ],
    ]
    codes = {}

    def run(argv, name):
        codes[name] = main(argv)

    threads = [
        threading.Thread(target=run, args=(argv, i))
        for i, argv in enumerate(invocations)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert all(not t.is_alive() for t in threads)
    assert set(codes.values()) == {EXIT_OK}
    reduced = load_csv(reduced_out)
    assert reduced.features.shape == (wine.rows, 3)


@pytest.mark.parametrize("method", ["he", "ss"])
def test_roles_whose_providers_disagree_on_width_all_exit_with_a_protocol_error(
    method, tmp_path, capsys
):
    rng = np.random.default_rng(7)
    csvs = []
    for party, cols in ((1, 4), (2, 5)):
        path = tmp_path / f"part{party}.csv"
        save_csv(Dataset(rng.normal(size=(30, cols))), path)
        csvs.append(str(path))
    names = ("server", "provider-1", "provider-2", "consumer")
    config = tmp_path / "session.json"
    config.write_text(json.dumps({
        "method": method, "parties": 2, "k": 2, "timeout": 3.0, "key_bits": 512,
        "allow_test_key": True, "endpoints": {n: f"127.0.0.1:{_free_port()}" for n in names},
    }))
    invocations = {
        "server": ["--role", "server"],
        "provider-1": ["--role", "provider", "--party-index", "1", "--input", csvs[0]],
        "provider-2": ["--role", "provider", "--party-index", "2", "--input", csvs[1]],
        "consumer": ["--role", "consumer"],
    }
    codes, escaped = {}, []

    def run(name):
        try:
            codes[name] = main(["role", "--config", str(config), *invocations[name]])
        except Exception as exc:
            escaped.append(exc)

    threads = [threading.Thread(target=run, args=(name,)) for name in names]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert all(not t.is_alive() for t in threads)
    assert escaped == []
    assert codes == dict.fromkeys(names, EXIT_PROTOCOL)
    err = capsys.readouterr().err
    assert "data error" not in err
    # Under he only the aggregator, provider 1, meets both providers' sums;
    # provider 2 is then waiting for the mean and fails in phase 4.
    failing = (1,) if method == "he" else (1, 2)
    for party in failing:
        assert f"protocol aborted in phase 2: party {party}: " in err


def test_role_mode_requires_config():
    assert main(["role", "--role", "server"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "text, command, message",
    [
        (None, ["simulate"], "cannot read config"),
        ("{", ["simulate"], "is not valid JSON"),
        ("[1, 2]", ["simulate"], "must hold a JSON object"),
        (json.dumps({"method": "ss", "parties": 2, "k": 2, "endpoints": {
            "server": "127.0.0.1:1", "provider-1": "127.0.0.1:1", "provider-2": "127.0.0.1:1"}}),
         ["role", "--role", "server"], "config endpoints missing parties [3]"),
    ],
    ids=["unreadable", "not-json", "json-array", "no-consumer"],
)
def test_a_config_the_cli_cannot_read_is_a_data_error(text, command, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert main([*command, "--config", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--k", "2"], "an --input CSV is required"),
        (["role", "--role", "provider", "--config", "{role}"],
         "--party-index is required for providers"),
        (["role", "--role", "provider", "--party-index", "3", "--config", "{role}"],
         "--party-index must lie in [1, 2]"),
        (["role", "--role", "provider", "--party-index", "0", "--config", "{role}"],
         "--party-index must lie in [1, 2]"),
        (["compare", "--input", "{wine}", "--delimiter", ";", "--k", "2"],
         "compare needs --label naming the target column"),
        (["bench", "--input", "{wine}", "--delimiter", ";", "--label", "quality", "--k", "2",
          "--parties", "2,x"], "--parties must be a list of ints, got '2,x'"),
    ],
    ids=["simulate-no-input", "provider-no-index", "provider-3-of-2", "provider-0",
         "compare-no-label", "bench-parties"],
)
def test_a_missing_or_unusable_argument_is_a_usage_error(argv, message, wine_csv, tmp_path, capsys):
    role = _role_config(tmp_path, "127.0.0.1:1")
    assert main([arg.format(role=role, wine=wine_csv) for arg in argv]) == EXIT_USAGE
    assert capsys.readouterr().err == f"{message}\nrun 'pppca --help' for usage\n"


def test_setting_zero_values_override_config():
    import argparse

    from pppca.cli import _setting

    args = argparse.Namespace(seed=0, k=None, standardize=False)
    config = {"seed": 7, "k": 3, "standardize": True}
    assert _setting(args, config, "seed") == 0  # 0 must not read as unset
    assert _setting(args, config, "k") == 3
    assert _setting(args, config, "standardize") is True


def test_role_connect_flag_overrides_config(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "method": "ss",
                "parties": 2,
                "k": 2,
                "timeout": 0.2,
                "endpoints": {
                    "server": f"127.0.0.1:{_free_port()}",
                    "provider-1": "127.0.0.1:1",
                    "provider-2": "127.0.0.1:1",
                    "consumer": "127.0.0.1:1",
                },
            }
        )
    )
    # Bad NAME=ADDR syntax is a usage error before anything binds.
    rc = main(
        ["role", "--role", "server", "--config", str(config), "--connect", "oops"]
    )
    assert rc == EXIT_USAGE
    # A well-formed override is accepted; the lonely server then times out
    # waiting for providers, which surfaces as a protocol error.
    rc = main(
        [
            "role",
            "--role",
            "server",
            "--config",
            str(config),
            "--connect",
            f"provider-1=127.0.0.1:{_free_port()}",
        ]
    )
    assert rc == EXIT_PROTOCOL


@pytest.mark.parametrize("endpoints", [["server", "127.0.0.1:1"], "server=127.0.0.1:1"])
def test_connect_over_endpoints_that_are_no_map_is_a_data_error(endpoints, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"method": "ss", "parties": 2, "k": 2, "endpoints": endpoints}))
    rc = main(["role", "--role", "server", "--config", str(config),
               "--connect", "server=127.0.0.1:1"])
    assert rc == EXIT_DATA
    assert "config must map 'endpoints' to {name: host:port}" in capsys.readouterr().err


def test_two_endpoint_names_for_one_party_are_a_data_error(tmp_path, capsys):
    path = tmp_path / "role.json"
    endpoints = {"server": "127.0.0.1:1", "provider-1": "127.0.0.1:3",
                 "provider-01": "127.0.0.1:9", "provider-2": "127.0.0.1:1",
                 "consumer": "127.0.0.1:1"}
    path.write_text(json.dumps(
        {"method": "ss", "parties": 2, "k": 2, "timeout": 0.3, "endpoints": endpoints}
    ))
    assert main(["role", "--role", "server", "--config", str(path)]) == EXIT_DATA
    assert "data error: endpoint 'provider-01' names party 1" in capsys.readouterr().err


def test_compare_on_sums_beyond_float64s_range_is_a_data_error(tmp_path, capsys):
    rng = np.random.default_rng(3)
    features = rng.normal(size=(40, 3))
    features[:, 0] = np.where(np.arange(40) % 2, 9e307, 1e308)
    path = tmp_path / "huge.csv"
    save_csv(Dataset(features=features, labels=rng.normal(size=40)), path)
    argv = ["compare", "--input", str(path), "--label", "label", "--k", "2", "--seed", "1"]
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err.startswith("data error:")


def test_a_non_finite_label_is_a_data_error(tmp_path, capsys):
    rows = np.random.default_rng(4).normal(size=(12, 4)).round(3).astype(str)
    for value in ("nan", "inf"):
        rows[5, 3] = value
        path = tmp_path / f"{value}.csv"
        path.write_text("a,b,c,y\n" + "".join(",".join(row) + "\n" for row in rows))
        argv = ["compare", "--input", str(path), "--label", "y", "--k", "2",
                "--methods", "centralized,separate", "--folds", "3"]
        assert main(argv) == EXIT_DATA
        # Row 5 is line 7, after the header.
        expected = f"data error: {path}: non-finite cell {value!r} at line 7, column 'y'\n"
        assert capsys.readouterr().err == expected


def test_a_non_finite_feature_is_a_data_error_naming_its_line_and_column(tmp_path, capsys):
    # The first in file order: line 3's feature b, not line 5's c.
    path = tmp_path / "t.csv"
    path.write_text("quality,a,b,c\n5,1.0,2.0,3.0\n6,1.5,nan,2.0\n\n7,2.0,1.0,inf\n")
    argv = ["simulate", "--input", str(path), "--label", "quality", "--k", "1", "--parties", "2"]
    assert main(argv) == EXIT_DATA
    expected = f"data error: {path}: non-finite cell 'nan' at line 3, column 'b'\n"
    assert capsys.readouterr().err == expected


def test_a_column_named_twice_is_a_data_error(tmp_path, capsys):
    # The second "quality" would otherwise stay a feature beside the label.
    path = tmp_path / "t.csv"
    path.write_text("a,quality,b,quality\n1,5,2,5\n2,6,1,6\n3,5,4,5\n4,7,3,7\n")
    argv = ["simulate", "--input", str(path), "--label", "quality", "--k", "1", "--parties", "2"]
    assert main(argv) == EXIT_DATA
    expected = f"data error: {path}: the header names column 'quality' twice\n"
    assert capsys.readouterr().err == expected


def test_an_out_path_that_cannot_be_written_is_a_data_error(
    wine_csv, tmp_path, capsys, monkeypatch
):
    def no_work(*args, **kwargs):
        raise AssertionError("the work started before the --out path was checked")

    for name in ("run_session", "compare", "TcpEndpoint"):
        monkeypatch.setattr(cli, name, no_work)
    out = str(tmp_path / "absent" / "out.csv")
    config = _config(tmp_path, wine_csv, methods="centralized", folds=3)
    role_config = _role_config(tmp_path, f"127.0.0.1:{_free_port()}")
    for argv in (
        ["simulate", "--config", config],
        ["compare", "--config", config],
        ["role", "--role", "server", "--config", role_config],
        ["role", "--role", "consumer", "--config", role_config],
    ):
        assert main([*argv, "--out", out]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: cannot write {out}: ")


def test_a_run_that_fails_past_the_out_check_leaves_no_new_file(
    wine_csv, tmp_path, capsys, monkeypatch
):
    new, kept = tmp_path / "new.csv", tmp_path / "kept.csv"
    kept.write_bytes(b"earlier,run\n1,2\n")

    def run(argv, code, err):
        for out in (new, kept):
            assert main([*argv, "--out", str(out)]) == code
            assert err in capsys.readouterr().err
            assert not new.exists()
            assert kept.read_bytes() == b"earlier,run\n1,2\n"

    # The wine table has 11 features, so k = 11 fails in the session itself.
    run(["simulate", "--input", wine_csv, "--label", "quality", "--delimiter", ";",
         "--k", "11", "--parties", "2"], EXIT_USAGE, "k=11 must satisfy 1 <= k < d=11")

    def fail(*args, **kwargs):
        raise DataError("failed past the --out check")

    for name in ("run_session", "compare", "TcpEndpoint"):
        monkeypatch.setattr(cli, name, fail)
    config = _config(tmp_path, wine_csv, methods="centralized", folds=3)
    role_config = _role_config(tmp_path, f"127.0.0.1:{_free_port()}")
    for argv in (
        ["simulate", "--config", config],
        ["compare", "--config", config],
        ["role", "--role", "server", "--config", role_config],
        ["role", "--role", "consumer", "--config", role_config],
    ):
        run(argv, EXIT_DATA, "data error: failed past the --out check")


def test_compare_rejects_a_negative_seed_whatever_the_methods(wine_csv, capsys):
    argv = ["compare", "--input", wine_csv, "--label", "quality", "--delimiter", ";", "--k", "2"]
    assert main(argv + ["--methods", "centralized", "--seed", "-1"]) == EXIT_USAGE
    assert "invalid configuration: seed must be non-negative" in capsys.readouterr().err


def _role_config(tmp_path, consumer: str, timeout: float = 0.3) -> str:
    path = tmp_path / "role.json"
    endpoints = {"server": "127.0.0.1:1", "provider-1": "127.0.0.1:1",
                 "provider-2": "127.0.0.1:1", "consumer": consumer}
    path.write_text(json.dumps(
        {"method": "ss", "parties": 2, "k": 2, "timeout": timeout, "endpoints": endpoints}
    ))
    return str(path)


def test_a_lone_role_names_its_phase_when_a_receive_times_out(tmp_path, capsys):
    config = _role_config(tmp_path, f"127.0.0.1:{_free_port()}")
    assert main(["role", "--role", "consumer", "--config", config]) == EXIT_PROTOCOL
    err = capsys.readouterr().err
    assert "in phase 9:" in err
    assert err.count("party 3") == 1
    assert "no message from party 1 within 0.3s" in err


def test_a_lone_role_names_the_type_and_sender_of_a_malformed_payload(tmp_path, capsys):
    port = _free_port()
    config = _role_config(tmp_path, f"127.0.0.1:{port}", timeout=5.0)
    codes = []
    consumer = threading.Thread(
        target=lambda: codes.append(main(["role", "--role", "consumer", "--config", config]))
    )
    consumer.start()
    # A fake party 1 sends the consumer reduced rows of shape 0x2.
    empty = ProtocolMessage(
        MsgType.REDUCED_ROWS, 1, 3, make_step(9, 3), encode_real_matrix(np.empty((0, 2)))
    )
    deadline = time.monotonic() + 5.0
    while True:
        try:
            peer = socket.create_connection(("127.0.0.1", port))
            break
        except OSError:
            assert time.monotonic() < deadline, "the consumer never listened"
            time.sleep(0.05)
    with peer:
        peer.sendall(serialize(empty))
        consumer.join(timeout=10)
    assert not consumer.is_alive()
    assert codes == [EXIT_PROTOCOL]
    err = capsys.readouterr().err
    assert "phase 9" in err
    assert err.count("party 3") == 1
    assert "party 1" in err and "REDUCED_ROWS" in err


@pytest.mark.parametrize("by", ["flag", "config"])
def test_role_mode_refuses_standardize_before_it_listens(
    by, wine_csv, tmp_path, capsys, monkeypatch
):
    # Each provider would divide its rows by its own standard deviations.
    monkeypatch.setattr(cli, "TcpEndpoint", lambda *args, **kwargs: pytest.fail("role listened"))
    names = ("server", "provider-1", "provider-2", "consumer")
    config = _config(tmp_path, wine_csv, parties=2, timeout=0.3, standardize=by == "config",
                     endpoints=dict.fromkeys(names, "127.0.0.1:1"))
    flag = ["--standardize"] if by == "flag" else []
    for role in (["provider", "--party-index", "1"], ["server"], ["consumer"]):
        assert main(["role", "--config", config, "--role", *role, *flag]) == EXIT_USAGE
        assert "role mode cannot standardize" in capsys.readouterr().err


def test_a_role_whose_port_is_taken_is_a_data_error(tmp_path, capsys):
    with socket.create_server(("127.0.0.1", 0)) as taken:
        address = f"127.0.0.1:{taken.getsockname()[1]}"
        assert main(["role", "--role", "consumer", "--config", _role_config(tmp_path, address)]) \
            == EXIT_DATA
    assert f"cannot listen on {address}" in capsys.readouterr().err


def test_a_port_above_65535_is_a_data_error_naming_the_endpoint(tmp_path, capsys):
    config = _role_config(tmp_path, "127.0.0.1:70000")
    assert main(["role", "--role", "consumer", "--config", config]) == EXIT_DATA
    assert "'127.0.0.1:70000'" in capsys.readouterr().err
    ok = _role_config(tmp_path, f"127.0.0.1:{_free_port()}")
    for flag, value in (("--listen", "127.0.0.1:65536"), ("--connect", "server=127.0.0.1:65536")):
        assert main(["role", "--role", "consumer", "--config", ok, flag, value]) == EXIT_DATA
        assert "'127.0.0.1:65536'" in capsys.readouterr().err


@pytest.mark.parametrize("port", ["\u00b2", "\uff11\uff12"])  # superscript two, fullwidth 12
def test_a_port_of_non_ascii_digits_is_a_data_error(tmp_path, capsys, port):
    address = f"127.0.0.1:{port}"
    ok = _role_config(tmp_path, f"127.0.0.1:{_free_port()}")
    assert main(["role", "--role", "server", "--config", ok, "--listen", address]) == EXIT_DATA
    assert f"data error: endpoint {address!r}" in capsys.readouterr().err
    config = _role_config(tmp_path, address)
    assert main(["role", "--role", "consumer", "--config", config]) == EXIT_DATA
    assert f"data error: endpoint {address!r}" in capsys.readouterr().err


def test_an_endpoint_name_of_non_ascii_digits_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "role.json"
    endpoints = {"server": "127.0.0.1:1", "provider-\uff11": "127.0.0.1:1",
                 "provider-2": "127.0.0.1:1", "consumer": "127.0.0.1:1"}
    path.write_text(json.dumps(
        {"method": "ss", "parties": 2, "k": 2, "timeout": 0.3, "endpoints": endpoints}
    ))
    assert main(["role", "--role", "server", "--config", str(path)]) == EXIT_DATA
    assert "unknown endpoint name 'provider-\uff11'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, settings, named",
    [
        (["role", "--role", "server"], {"endpoints": {"provider-one": "127.0.0.1:1"}},
         "'provider-one'"),
        (["role", "--role", "server"], {"endpoints": {"server": 7101}}, "'server'"),
        (["compare"], {"methods": ["pppca-ss"]}, "methods"),
        (["compare"], {"folds": "x"}, "folds"),
        (["simulate"], {"delimiter": 5}, "delimiter"),
        (["simulate"], {"delimiter": ";;"}, "delimiter"),  # the csv module takes one character
        (["simulate"], {"input": 5}, "input"),  # not a file descriptor
        (["simulate"], {"no_header": "false"}, "no_header"),
        (["simulate"], {"fixed_point": {"l": 64, "f": 24.5}}, "f must be an int"),
        (["role", "--role", "server"], {"endpoints": {"provider-3": "127.0.0.1:1"}},
         "endpoint 'provider-3' out of range for 2 parties"),
    ],
)
def test_a_config_value_the_cli_cannot_use_is_a_data_error_naming_the_key(
    command, settings, named, wine_csv, tmp_path, capsys
):
    if "endpoints" in settings:
        endpoints = {"server": "127.0.0.1:1", "provider-1": "127.0.0.1:1",
                     "provider-2": "127.0.0.1:1", "consumer": "127.0.0.1:1"}
        settings = {"method": "ss", "parties": 2, "timeout": 0.3,
                    "endpoints": {**endpoints, **settings["endpoints"]}}
    assert main([*command, "--config", _config(tmp_path, wine_csv, **settings)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and named in err


def _config(tmp_path, wine_csv, **settings):
    path = tmp_path / "cfg.json"
    data = {"input": wine_csv, "label": "quality", "delimiter": ";", "k": 3, "seed": 5}
    path.write_text(json.dumps({**data, **settings}))
    return str(path)


def test_bench_honours_the_configs_fixed_point(wine_csv, tmp_path, capsys):
    # (16, 12) leaves |x| < 4 per provider: wine's features overflow the ring.
    config = _config(tmp_path, wine_csv, fixed_point={"l": 16, "f": 12})
    assert main(["simulate", "--config", config]) == EXIT_PROTOCOL
    assert main(["bench", "--config", config, "--parties", "2"]) == EXIT_PROTOCOL
    assert "protocol error" in capsys.readouterr().err


def test_a_config_that_names_an_aggregator_is_a_data_error(wine_csv, tmp_path, capsys):
    # Provider 1 folds the he ciphertexts; no config picks another.
    config = _config(
        tmp_path, wine_csv, method="he", parties=3, key_bits=512,
        allow_test_key=True, aggregator=2,
    )
    assert main(["simulate", "--config", config]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "aggregator" in err


def test_the_cli_can_set_every_session_field():
    from dataclasses import fields

    from pppca.cli import CONFIG_KEYS, SESSION_SETTINGS
    from pppca.protocol import SessionConfig

    settable = {"method", "parties", "k", *SESSION_SETTINGS}
    assert settable == {f.name for f in fields(SessionConfig)}
    assert settable <= CONFIG_KEYS


def test_a_config_key_no_subcommand_reads_is_a_data_error(wine_csv, tmp_path, capsys):
    config = _config(tmp_path, wine_csv, key_bit=512)
    for command in (["simulate"], ["compare"], ["bench"], ["role", "--role", "server"]):
        assert main([*command, "--config", config]) == EXIT_DATA
        assert "key_bit" in capsys.readouterr().err
    # A shared role config keeps its endpoints and every key some subcommand reads.
    shared = _config(
        tmp_path, wine_csv, method="ss", parties=2, timeout=20.0, methods="centralized",
        folds=3, task="regression", standardize=False, no_header=False,
        endpoints={"server": "127.0.0.1:1"},
    )
    assert main(["simulate", "--config", shared]) == EXIT_OK
    assert main(["compare", "--config", shared]) == EXIT_OK
    assert "separate" not in capsys.readouterr().out  # the config's methods, not all
    # A known key of the wrong type is an invalid configuration, not a traceback.
    assert main(["simulate", "--config", _config(tmp_path, wine_csv, k="3")]) == EXIT_USAGE


def test_a_string_allow_test_key_does_not_allow_a_test_key(wine_csv, tmp_path, capsys):
    # The string "false" is truthy; read as is, it would run a 512-bit key.
    config = _config(
        tmp_path, wine_csv, method="he", key_bits=512, allow_test_key="false", k=2, seed=3,
    )
    assert main(["simulate", "--config", config]) == EXIT_USAGE
    assert "allow_test_key" in capsys.readouterr().err


def test_bench_takes_parties_as_a_json_list(wine_csv, tmp_path, capsys):
    config = _config(tmp_path, wine_csv, parties=[2, 3])
    assert main(["bench", "--config", config]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert stdout.count("exact") == 2
    assert re.search(r"^\s+2\s+ss", stdout, re.M) and re.search(r"^\s+3\s+ss", stdout, re.M)
