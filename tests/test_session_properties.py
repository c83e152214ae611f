"""One property over the session's input and config space.

Hypothesis draws the providers and their rows (a provider may hold one
row), the width, k, each column's scale (1e-12 to 1e9) and offset (up to
1e6 times its scale), the back end and the transport, with a fixed
derandomized seed so that Tier-1 runs the same examples every time.  Every
session either answers or aborts:

- an answer lies within ``angle_bound``, plus the roundoff of binary64
  arithmetic, of PCA on the pooled rows in ``longdouble``, passes the
  privacy audit and the closed-form message counts, and ``he`` opens the
  same bits as ``ss``; over TCP, its transcript is the simulation's, byte
  for byte;
- an abort names a cause that holds for the input: k >= d, or, in phase 8,
  an opened eigengap g and grid error E that the pooled rows bear out.

Neither round's budget check may trip: the column sums stay well inside
round 0's, and the exponents hold every scaled covariance term to 1.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pppca.errors import ConfigError, ProtocolAbort
from pppca.privacy import assert_privacy, expected_message_counts, message_counts_by_type
from pppca.protocol import MAX_ANGLE_BOUND, PHASE_TRANSFER, SessionConfig, run_session

U = 2.0**-53


@st.composite
def sessions(draw):
    parties = draw(st.integers(2, 5))
    rows = draw(st.lists(st.integers(1, 6), min_size=parties, max_size=parties))
    d = draw(st.integers(2, 6))
    # One draw in five asks for k = d, which is refused.
    k = d if draw(st.sampled_from([False] * 4 + [True])) else draw(st.integers(1, d - 1))
    scales = 10.0 ** np.array(draw(st.lists(st.integers(-12, 9), min_size=d, max_size=d)))
    offsets = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, -3.0, 1e3, -1e6]),
                                     min_size=d, max_size=d)))
    seed = draw(st.integers(0, 2**32 - 1))
    method = draw(st.sampled_from(["ss", "he"]))
    transport = draw(st.sampled_from(["sim", "tcp"]))
    rng = np.random.default_rng(seed)
    blocks = [(rng.normal(size=(r, d)) + offsets) * scales for r in rows]
    cfg = SessionConfig(
        method=method, parties=parties, k=k, seed=seed % 1000, key_bits=512, allow_test_key=True
    )
    return cfg, blocks, transport


def _reference(blocks, k):
    """Pooled covariance in longdouble, then its eigenpairs; the roundoff
    the angle may carry beyond the grid's bound: twice (Yu, Wang and
    Samworth) a perturbation of 64 d u ||C||_F over the eigengap at k."""
    x = np.vstack(blocks).astype(np.longdouble)
    centered = x - x.sum(axis=0) / len(x)
    cov = (centered.T @ centered / (len(x) - 1)).astype(np.float64)
    values, vectors = np.linalg.eigh(cov)
    values, vectors = values[::-1], vectors[:, ::-1]
    gap = float(values[k - 1] - values[k])
    roundoff = 64 * cov.shape[0] * U * float(np.linalg.norm(cov))
    return vectors[:, :k], gap, roundoff


def _sine(transfer, top) -> float:
    return float(np.linalg.norm(transfer - top @ (top.T @ transfer), 2))


def _outcome(cfg, blocks, transport):
    try:
        return run_session(cfg, blocks, transport)
    except (ConfigError, ProtocolAbort) as exc:
        return exc


@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sessions())
def test_a_session_answers_within_its_bound_or_aborts_for_a_cause_that_holds(drawn):
    cfg, blocks, transport = drawn
    d = blocks[0].shape[1]
    outcome = _outcome(cfg, blocks, transport)
    if cfg.method == "he":  # the same bits as ss, or the same abort
        twin = _outcome(SessionConfig(method="ss", parties=cfg.parties, k=cfg.k, seed=cfg.seed),
                        blocks, "sim")
        assert type(twin) is type(outcome)
        if isinstance(outcome, Exception):
            assert str(twin) == str(outcome)
        else:
            for name in ("mean", "covariance", "transfer", "reduced"):
                assert getattr(twin, name).tobytes() == getattr(outcome, name).tobytes(), name
    if transport == "tcp" and not isinstance(outcome, ConfigError):  # the same bytes on sim
        sim = _outcome(cfg, blocks, "sim")
        if isinstance(outcome, ProtocolAbort):
            assert str(sim) == str(outcome)
        else:
            assert sim.transcript.canonical_bytes() == outcome.transcript.canonical_bytes()

    if isinstance(outcome, ConfigError):
        assert cfg.k >= d and f"k={cfg.k} must satisfy 1 <= k < d={d}" in str(outcome)
        return
    assert cfg.k < d, "k >= d went unrefused"
    top, gap, roundoff = _reference(blocks, cfg.k)
    if isinstance(outcome, ProtocolAbort):
        # The budget checks never trip; only the transfer matrix may abort.
        assert outcome.phase == PHASE_TRANSFER, str(outcome)
        found = re.search(r"g = (\S+?),.* E = (\S+?)[ ;:]", str(outcome))
        assert found and f"(l, f) = ({cfg.fixed_point.l}, {cfg.fixed_point.f})" in str(outcome)
        g, error = float(found[1]), float(found[2])
        # E is printed to three digits; the opened gap is off the pooled
        # one by at most E and roundoff, and it leaves the sine's bound
        # E / (g - E) above the limit.
        assert abs(gap - g) <= 1.01 * error + roundoff + 1e-3 * abs(g), (gap, g, error)
        assert g <= 1.01 * error * (1 + 1 / MAX_ANGLE_BOUND), (g, error)
        return

    result = outcome
    assert result.angle_bound <= MAX_ANGLE_BOUND
    sine = _sine(result.transfer, top)
    assert sine <= (result.angle_bound + 2 * roundoff / gap if gap > 0 else math.inf)
    assert assert_privacy(result.transcript, cfg) == []
    assert message_counts_by_type(result.transcript) == expected_message_counts(cfg)


@pytest.mark.parametrize("method", ["ss", "he"])
def test_the_covariance_rounds_budget_check_never_trips_in_the_drawn_space(monkeypatch, method):
    # The scaled covariance terms are at most 1, against a budget of at
    # least 2, even for rows at the edges of the drawn space: one row, scales
    # 1e-12 and 1e9, offsets of 1e6 times the scale.
    from pppca.protocol import PHASE_COV, ProviderRole

    worst = []
    check = ProviderRole._check_range

    def recording(self, values, what, fp):
        if self.phase == PHASE_COV:
            worst.append(float(np.max(np.abs(values))))
        check(self, values, what, fp)

    monkeypatch.setattr(ProviderRole, "_check_range", recording)
    rng = np.random.default_rng(40)
    scales = 10.0 ** np.array([-12, -3, 0, 9])
    offsets = np.array([-1e6, 0.0, 1e6, 1.0])
    blocks = [(rng.normal(size=(r, 4)) + offsets) * scales for r in (1, 2, 7)]
    cfg = SessionConfig(method=method, parties=3, k=1, seed=1, key_bits=512, allow_test_key=True)
    run_session(cfg, blocks)
    assert len(worst) == 3 and max(worst) <= 1.0
