"""The package's public surface: every layer's ``__all__``, re-exported, and
what importing it costs."""

import os
import re
import subprocess
import sys

import desim
from desim import kernel, process, resources, rng

LAYERS = (kernel, process, resources, rng)


def test_all_is_the_layers_all_without_duplicates():
    layered = [name for layer in LAYERS for name in layer.__all__]
    assert sorted(desim.__all__) == sorted(layered)
    assert len(set(desim.__all__)) == len(desim.__all__)


def test_each_export_is_the_object_its_layer_defines():
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(desim, name) is getattr(layer, name)


def test_importing_the_package_loads_no_stdlib_module_it_does_not_use():
    """A cold start skips ``dataclasses`` and defers ``hashlib`` and ``json``.

    Runs in a fresh interpreter without ``site``, so nothing is preloaded;
    the deferred imports must still give the same seed and the same line.
    """
    src = os.path.dirname(os.path.dirname(desim.__file__))
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {src!r})",
        "import desim, desim.scenarios, desim.stats, desim.cli",
        "print(sorted(m for m in ('dataclasses', 'inspect', 'hashlib', 'json')",
        "             if m in sys.modules))",
        "print(desim.stats.derive_seed(0, 'ordered', 2))",
        "print(desim.cli.emit_trace([(1.5, 'P0', 'gave up')], 'jsonl'), end='')",
    ])
    done = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "[]",
        "2920268671547522315",
        '{"time": 1.5, "actor": "P0", "message": "gave up"}',
    ]


def test_each_entry_point_loads_only_the_layers_it_runs():
    """``desim.stats`` loads the party model only for a party run, and
    ``desim run`` never loads ``desim.stats``; each in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(desim.__file__))
    scripts = [
        "import desim.stats",
        "import io, desim.cli\n"
        "assert desim.cli.main(['run', '--scenario', 'counter', '--n', '2'],"
        " io.StringIO()) == 0",
    ]
    for script, unused in zip(scripts, ("desim.scenarios", "desim.stats")):
        done = subprocess.run(
            [sys.executable, "-S", "-c",
             f"import sys\nsys.path.insert(0, {src!r})\n{script}\n"
             f"print({unused!r} in sys.modules)"],
            capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n", unused


def test_readme_library_sketch_runs():
    """The README's library sketch runs as printed, so an API trim cannot
    leave it broken unnoticed."""
    src = os.path.dirname(os.path.dirname(desim.__file__))
    with open(os.path.join(os.path.dirname(src), "README.md"), encoding="utf-8") as f:
        readme = f.read()
    section = readme.split("\n## Library sketch\n", 1)[1]
    sketch = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    done = subprocess.run([sys.executable, "-c", sketch], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2
    assert all(re.fullmatch(r"\w+ done at \d+\.\d{3}", line) for line in lines), lines
