"""Count the bytecode instructions that fixed desim workloads execute.

    python3.12 benchmarks/icount.py [SRC]

Needs Python 3.12 or later (``sys.monitoring``). ``SRC`` is the ``src``
directory to import desim from, by default this checkout's, so a tree
exported with ``git archive`` can be counted too. Each shape runs once to
warm up and once more while an ``INSTRUCTION`` callback counts every
instruction executed in this process, attributed to its code object. The
report gives the Python version, then each shape's total and its ten
costliest functions.

The shapes are smaller forms of perfbench's four workloads. The sweep runs
its cells serially: events in worker processes are not seen. A count repeats
exactly on one Python and one tree, but differs between Python versions, and
work done in C is not counted, so it complements a timing and never replaces
one. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOP = 10


def shapes():
    """Name and zero-argument call of each shape, in report order."""
    from desim import Environment, cli, stats
    from desim.scenarios import build_party

    def party():
        env = Environment(1)
        build_party(env, 16, "impatient")
        env.run(until=2_500.0)

    def sweep():
        for variant in ("ordered", "bowl", "impatient"):
            stats.sweep(variant, range(2, 21), 500.0, [1], workers=1)

    def diag():
        out, err = io.StringIO(), io.StringIO()
        argv = ["run", "--scenario", "impatient", "--n", "12", "--until", "2500", "--diag"]
        if cli.main(argv, stdout=out, stderr=err) != 0:
            raise RuntimeError(f"desim {' '.join(argv)} failed: {err.getvalue()}")

    return [
        ("mm1", lambda: stats.mm1_simulate(stats.MM1Params(0.09, 0.1), 5_000, seed=1)),
        ("party", party),
        ("sweep", sweep),
        ("diag", diag),
    ]


def count(call) -> Counter:
    """Instructions executed by ``call()``, by code object."""
    mon = sys.monitoring
    tool = mon.PROFILER_ID
    counts = Counter()

    def on_instruction(code, offset):
        counts[code] += 1

    mon.use_tool_id(tool, "benchmarks/icount.py")
    mon.register_callback(tool, mon.events.INSTRUCTION, on_instruction)
    mon.set_events(tool, mon.events.INSTRUCTION)
    try:
        call()
    finally:
        mon.set_events(tool, 0)
        mon.free_tool_id(tool)
    return counts


def main(argv: list[str] | None = None) -> int:
    if sys.version_info < (3, 12):
        sys.exit(f"icount.py needs Python 3.12 or later (sys.monitoring); "
                 f"this is {sys.version.split()[0]}")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", nargs="?", type=Path, default=ROOT / "src",
                        help="the src directory to import desim from")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import desim

    print(f"python {sys.version.split()[0]}")
    print(f"desim {Path(desim.__file__).parent}")
    for name, call in shapes():
        call()
        counts = count(call)
        print(f"\n{name} {counts.total():,}")
        for code, n in counts.most_common(TOP):
            where = f"{Path(code.co_filename).name}:{code.co_firstlineno}"
            print(f"  {n:>12,}  {code.co_qualname}  {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
