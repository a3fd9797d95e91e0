import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from darmonsel.fields import IdealFactorization, PrimeIdeal, factor_ideal, parse_field
from darmonsel.quadratic import make_extension

# the three base fields used throughout: Q, Q(sqrt2), and the totally real
# cubic of conductor 49 (theta = 2cos(2pi/7))
RAT_POLY = [0, 1]
SQRT2_POLY = [-2, 0, 1]
CUBIC_POLY = [-1, -2, 1, 1]


@pytest.fixture(scope="session")
def F_rat():
    return parse_field(RAT_POLY)


@pytest.fixture(scope="session")
def F_sqrt2():
    return parse_field(SQRT2_POLY)


@pytest.fixture(scope="session")
def F_sqrt2_full(F_sqrt2):
    # (2) = (theta)^2; index is 1 so the Kummer-Dedekind shape is exact
    return F_sqrt2.with_explicit_primes(
        2, [PrimeIdeal(p=2, local_factor=(0, 1), e=2, f=1)])


@pytest.fixture(scope="session")
def F_cubic():
    return parse_field(CUBIC_POLY)


@pytest.fixture(scope="session")
def F_cubic_full(F_cubic):
    # disc(poly) = 49 = disc(field), index 1: (7) = (7, theta - 2)^3
    return F_cubic.with_explicit_primes(
        7, [PrimeIdeal(p=7, local_factor=(5, 1), e=3, f=1)])


@pytest.fixture(scope="session")
def K_sqrt5(F_rat):
    return make_extension(F_rat, [5])


@pytest.fixture(scope="session")
def K_atr(F_sqrt2):
    # delta = theta = sqrt2: negative at one embedding, positive at the other
    return make_extension(F_sqrt2, [0, 1])


@pytest.fixture(scope="session")
def K_cubic(F_cubic):
    return make_extension(F_cubic, [0, 1])


@pytest.fixture()
def rational_ideal(F_rat):
    def build(m: int) -> IdealFactorization:
        return factor_ideal(F_rat, generator=[m])
    return build


@pytest.fixture()
def run_optimized():
    """Run a script under python -O, where assert is stripped, with this
    checkout's src first on the path."""
    def run(script: str) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        return subprocess.run([sys.executable, "-O", "-c", textwrap.dedent(script)],
                              env=env, capture_output=True, text=True, timeout=120)
    return run
