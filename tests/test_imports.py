"""Each command line job loads only the modules its command runs.

A job is one fresh interpreter, and without cached bytecode it compiles
every module it imports, so an import that a command does not need
costs every job of that command.  These tests run fresh interpreters
and read which dgdescent modules ended up in sys.modules.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DATA = SRC / "dgdescent" / "data"

# runs the CLI on sys.argv[1:] and prints the exit code and the loaded
# dgdescent modules
PROBE = """
import contextlib, io, sys
from dgdescent.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.split(".")[0] == "dgdescent"))
"""


def _run(code, *argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=120).stdout.split()


def _cli_modules(*argv):
    code, *modules = _run(PROBE, *map(str, argv))
    assert code == "0"
    return set(modules)


def test_package_import_loads_no_submodule():
    loaded = _run("import sys, dgdescent; print(*sorted("
                  "m for m in sys.modules if m.startswith('dgdescent')))")
    assert loaded == ["dgdescent"]


def test_the_totalization_loads_no_record_reader():
    """`tot` raises TruncationError from `dgla`, so no io <-> tot cycle
    is left."""
    loaded = _run("import sys, dgdescent.tot; print(*sorted("
                  "m for m in sys.modules if m.startswith('dgdescent')))")
    assert "dgdescent.tot" in loaded and "dgdescent.io" not in loaded


# one record of each kind check-algebra reads: a cover is dg Lie data,
# so reading one (or an instance of one) loads no Cech machinery
@pytest.mark.parametrize("record", [
    "algebra_ef.json", "artin_t3.json", "cover_segment_line.json",
    "instance_segment_t3.json"])
def test_check_algebra_loads_only_the_record_readers(record):
    loaded = _cli_modules("check-algebra", DATA / record)
    assert loaded == {"dgdescent", "dgdescent.cli", "dgdescent.io",
                      "dgdescent.dgla", "dgdescent.cochain",
                      "dgdescent.linalg"}


@pytest.mark.parametrize("argv", [
    ["mc", DATA / "algebra_ef.json", "--base", DATA / "artin_t3.json",
     "--samples", "1"],
    ["cech", DATA / "instance_segment_eps.json"],
    ["tot", DATA / "cosimplicial_constant_ef_t3.json",
     "--degree-bound", "1"],
    ["verify-descent", DATA / "instance_segment_eps.json",
     "--degree-bound", "1", "--samples", "1"],
], ids=lambda argv: argv[0])
def test_commands_skip_simplicial_sets_and_mc_spaces(argv):
    loaded = _cli_modules(*argv)
    assert not loaded & {"dgdescent.simplicial", "dgdescent.sullivan",
                         "dgdescent.mc_space"}
