import random
import threading
import time

import pytest

from pppca import paillier


@pytest.fixture(scope="session")
def test_keypair():
    """One 512-bit keypair shared across tests; keygen is the slow part."""
    return paillier.keygen(512, random.Random(0xFEED), allow_test_key=True)


@pytest.fixture(scope="session")
def test_keypair_1024():
    return paillier.keygen(1024, random.Random(0xBEEF))


@pytest.fixture
def builtin_kernel(monkeypatch):
    """Every modular exponentiation and randomizer table on the builtin
    ``pow`` and Python ints, as when libgmp does not load."""
    monkeypatch.setattr(paillier, "_powmod", pow)
    monkeypatch.setattr(paillier, "_gmp", None)
    paillier._randomizer_table_for.cache_clear()
    yield
    paillier._randomizer_table_for.cache_clear()


def _running(*prefixes: str) -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith(prefixes)]


@pytest.fixture(autouse=True)
def no_role_thread_left_running():
    """A role thread still waiting after its test would hang interpreter exit,
    so every session must end with all of them joined: on success, on a
    stall and on failure.  A TCP endpoint's accept and read threads are
    daemons, but one still running means an endpoint was left open; they get
    a second to see their sockets close."""
    yield
    left = _running("pppca-party-")
    if left:
        pytest.fail(f"role threads left running: {left}")
    deadline = time.monotonic() + 1.0
    while left := _running("pppca-accept-", "pppca-read-"):
        if time.monotonic() > deadline:
            pytest.fail(f"transport threads left running: {left}")
        time.sleep(0.01)
