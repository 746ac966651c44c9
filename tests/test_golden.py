"""Golden outputs: SHA-256 digests of full CLI runs, pinned byte for byte.

Criterion 8 only compares a run with itself, so it cannot see a kernel or
model change that shifts trajectories. These digests were computed once and
must not be re-pinned to make a change pass: a change that alters one of them
changes what the simulation does, and has to say so and why.
"""

import hashlib
import io

import pytest

from desim.cli import main

GOLDENS = [
    (("run", "--scenario", "impatient", "--n", "12", "--seed", "99",
      "--until", "50000", "--diag"),
     "0700ae7feeec390b6e92a32db85e74bf8b13a54eb9f8e3988c31e508774d6a38"),
    (("run", "--scenario", "classic", "--n", "5", "--seed", "16", "--diag"),
     "cf4a2be2d74ec5811d705931ea9717b41ec8a5ae9341fb364dbcce042e25e35a"),
    (("sweep", "--scenario", "bowl", "--n", "2..12", "--seeds", "3",
      "--until", "5000"),
     "1194baaf6f003188b826f7b0294b59ac85875a9949014e9a76cb8e0c8b4f20a4"),
    # The only golden that exercises interrupts: each arrival wakes the
    # sleeping operator (97 "woke up" lines).
    (("run", "--scenario", "counter", "--n", "2000", "--seed", "7"),
     "d89fda93ced643bdaad71943538a61175c92dd87edeac07709bbd63ef6f72c48"),
    # The KS statistic of 10,000 exponential draws and two M/M/1 runs.
    (("validate", "--customers", "20000", "--seed", "0"),
     "1f914e3dda57b3bab6de790b92e4cb3484762f151b27c40e7687893838bdc080"),
]


@pytest.mark.parametrize("argv, digest", GOLDENS,
                         ids=[" ".join(argv[:3]) for argv, _ in GOLDENS])
def test_output_digest_is_pinned(argv, digest):
    out, err = io.StringIO(), io.StringIO()
    assert main(list(argv), stdout=out, stderr=err) == 0, err.getvalue()
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digest
