"""Golden outputs: SHA-256 digests of full CLI runs and of the acceptance
sweeps' CSV, pinned byte for byte.

Criterion 8 only compares a run with itself, so it cannot see a kernel or
model change that shifts trajectories. These digests were computed once and
must not be re-pinned to make a change pass: a change that alters one of them
changes what the simulation does, and has to say so and why.

The sweep digests reuse the session fixtures of ``conftest.py``, so the full
suite spends no extra simulation time on them; run alone, this file takes
about 80-90 s on a 2-core machine, nearly all of it in the three sweeps.
"""

import hashlib
import io

import pytest

from desim.cli import main
from desim.stats import to_csv


def _golden(argv, digest, id_words=3):
    """A CLI golden, named by the first ``id_words`` words of its argv."""
    return pytest.param(argv, digest, id=" ".join(argv[:id_words]))


GOLDENS = [
    _golden(("run", "--scenario", "impatient", "--n", "12", "--seed", "99",
             "--until", "50000", "--diag"),
            "0700ae7feeec390b6e92a32db85e74bf8b13a54eb9f8e3988c31e508774d6a38"),
    _golden(("run", "--scenario", "classic", "--n", "5", "--seed", "16", "--diag"),
            "cf4a2be2d74ec5811d705931ea9717b41ec8a5ae9341fb364dbcce042e25e35a"),
    _golden(("sweep", "--scenario", "bowl", "--n", "2..12", "--seeds", "3",
             "--until", "5000"),
            "1194baaf6f003188b826f7b0294b59ac85875a9949014e9a76cb8e0c8b4f20a4"),
    # The only golden that exercises interrupts: each arrival wakes the
    # sleeping operator (97 "woke up" lines).
    _golden(("run", "--scenario", "counter", "--n", "2000", "--seed", "7"),
            "d89fda93ced643bdaad71943538a61175c92dd87edeac07709bbd63ef6f72c48"),
    # The KS statistic of 10,000 exponential draws and two M/M/1 runs.
    _golden(("validate", "--customers", "20000", "--seed", "0"),
            "1f914e3dda57b3bab6de790b92e4cb3484762f151b27c40e7687893838bdc080"),
    # The only golden that loses rice races to the deadline and so calls
    # Container.cancel_get (141 "gave up" lines).
    _golden(("run", "--scenario", "impatient", "--n", "26", "--seed", "0",
             "--until", "5000", "--diag"),
            "17adbe99a0299785bff2c85d39205676dcd9ed3006f7f11c1866f28ad39f6ef6",
            id_words=5),
    # The only golden of a party's jsonl trace (8,859 lines).
    _golden(("run", "--scenario", "impatient", "--n", "12", "--seed", "99",
             "--until", "5000", "--diag", "--format", "jsonl"),
            "9ba8f7538edc548b504dbe5a957a54294714cd13d1e50f78453a8d2de0a08902",
            id_words=12),
]

# to_csv of each acceptance sweep (n=2..20, 10 seeds, t=5e4; 190 rows each).
SWEEP_GOLDENS = [
    ("ordered_sweep", "c816448c839c02bf8b788fff31534429ef0d34eaabadc3afade225266e31929e"),
    ("bowl_sweep", "b9cfb2c98d8aa30a91754e07e28539df2ed2bf85dbaa437ea085164fa45eeeea"),
    ("impatient_sweep", "2b1f83caea3e366ecb8472d7c04d5cb7e1f161c4efae74b583fbcd7182f2b3d4"),
]


@pytest.mark.parametrize("argv, digest", GOLDENS)
def test_output_digest_is_pinned(argv, digest):
    out, err = io.StringIO(), io.StringIO()
    assert main(list(argv), stdout=out, stderr=err) == 0, err.getvalue()
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("fixture, digest", SWEEP_GOLDENS,
                         ids=[fixture for fixture, _ in SWEEP_GOLDENS])
def test_sweep_csv_digest_is_pinned(fixture, digest, request):
    text = to_csv(request.getfixturevalue(fixture))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
