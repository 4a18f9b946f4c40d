"""Cold-start checks, each in a fresh interpreter.

numpy is needed only by the quadrature layer, so it must load on the
first quadrature call and not with `import trisum`.  The test process
itself has numpy loaded already, so every check runs in a subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from trisum.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

# runs trisum.cli.main on its arguments, then reports on stderr whether
# numpy was loaded
_CLI_CHILD = """\
import sys
import trisum.cli
code = trisum.cli.main(sys.argv[1:])
print("numpy loaded:", "numpy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_import_leaves_numpy_unloaded():
    proc = _python("-c", "import sys, trisum, trisum.cli; "
                         "print('numpy' in sys.modules)")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


@pytest.mark.parametrize("argv, loads_numpy", [
    (["eval", "--family", "A1", "--z", "2", "--method", "closed"], False),
    (["eval", "--family", "B2", "--z", "-8", "--m", "1", "--method", "series"], False),
    (["constants"], False),
    (["eval", "--family", "A1", "--z", "2", "--method", "quadrature"], True),
], ids=["closed", "series", "constants", "quadrature"])
def test_cli_loads_numpy_only_for_quadrature(capsys, argv, loads_numpy):
    proc = _python("-c", _CLI_CHILD, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"numpy loaded: {loads_numpy}\n"
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out


def test_huge_z_quadrature_is_quiet_cold():
    # the numpy errstate that silences the overflow is imported on this
    # path alone, so it must work in an interpreter that has no numpy yet
    proc = _python("-W", "error", "-m", "trisum.cli", "eval", "--family", "A1",
                   "--z", "1e300", "--m", "1", "--method", "quadrature")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "-0\n", "")
