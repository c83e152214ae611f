import random
import threading

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


@pytest.fixture(autouse=True)
def no_role_thread_left_running():
    """A role thread still waiting after its test would hang interpreter exit,
    so every session must end with all of them joined: on success, on a
    stall and on failure."""
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith("pppca-party-")]
    if left:
        pytest.fail(f"role threads left running: {left}")
