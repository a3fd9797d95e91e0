"""Bounded work on inputs whose size the user controls.

Each case runs the CLI in a child process whose CPU time and address space
are capped by setrlimit in the child only, so a search that blows up ends
the child with a nonzero exit, not the test session.
"""

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from darmonsel.intmath import is_prime, primes_below

SRC = Path(__file__).resolve().parents[1] / "src"
CPU_SECONDS = 10
ADDRESS_SPACE = 1 << 30
# 37 digits, and its two prime factors far beyond trial division
SEMIPRIME = (10**18 + 3) * (10**18 + 9)


def _limit_child():
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _cpu_of_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_cli(tmp_path, c: int):
    """The CLI on F = Q(sqrt c), delta = sqrt c, N = (1): (exit code,
    stderr, CPU seconds)."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"schema_version": 1, "field_poly": [-c, 0, 1],
                                  "delta": [0, 1], "conductor": {"factors": []}}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    before = _cpu_of_children()
    out = subprocess.run(
        [sys.executable, "-m", "darmonsel.cli", "--input", str(config),
         "--out", str(tmp_path / "report.json"), "--no-trace"],
        env=env, capture_output=True, text=True, preexec_fn=_limit_child,
        timeout=10 * CPU_SECONDS)
    return out.returncode, out.stderr, _cpu_of_children() - before


def test_semiprime_is_37_digits_of_two_large_primes():
    assert len(str(SEMIPRIME)) == 37
    assert is_prime(10**18 + 3) and is_prime(10**18 + 9)


@pytest.mark.parametrize("c,codes", [
    # 2^30 divisors of the constant term: irreducibility must not walk them
    (math.prod(primes_below(128)[:30]), (0, 2)),
    # disc = 4c: Pollard rho must give up within its step budget
    (SEMIPRIME, (1,)),
    # every prime below 1024 divides disc, so the F_p factoring runs at 1031
    (math.prod(primes_below(1024)), (0, 1, 2)),
], ids=["primorial-30", "semiprime-37-digits", "primorial-1024"])
def test_field_certification_is_bounded(tmp_path, c, codes):
    code, stderr, cpu = run_cli(tmp_path, c)
    assert code in codes, stderr[-2000:]
    assert "Traceback" not in stderr
    assert cpu < CPU_SECONDS / 2
    if codes == (1,):
        assert "NormTooLarge" in stderr
