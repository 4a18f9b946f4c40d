"""Cold-start checks, each in a fresh interpreter.

numpy is needed only by the quadrature layer, so it must load on the
first quadrature call and not with `import trisum`.  csv is needed only
for csv output, and nothing needs dataclasses or inspect, so neither
`import trisum` nor json and table output may load them.  The test
process itself has these loaded already, so every check runs in a
subprocess, against the modules that interpreter held before the import.
"""

import csv
import io
import json
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

# modules import trisum must not load; some site setups preload them, so
# a child reports only those its own imports added
_UNWANTED = ("dataclasses", "inspect", "csv", "random")

# runs trisum.cli.main on its arguments, then reports on stderr whether
# the import and the call loaded csv (numpy, on a quadrature call, loads
# inspect itself)
_CSV_CHILD = """\
import sys
before = set(sys.modules)
import trisum.cli
code = trisum.cli.main(sys.argv[1:])
print("csv loaded:", "csv" in set(sys.modules) - before, file=sys.stderr)
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


# numpy is bound once, by the first stage build, for the catalog factors;
# each of these reaches the quadrature by another road, in an interpreter
# that has no numpy yet, and must match the same call made here
@pytest.mark.parametrize("argv", [
    # (z u)^2 overflows: the errstate is entered before any stage exists
    ["integral", "--kernel", "lnx", "--variant", "c1", "--z", "1e300"],
    # beta_term_integral's factor, ones at k = 0 and powers of u after
    ["verify", "--suite", "beta-terms", "--format", "json"],
], ids=["integral-c1-errstate", "verify-beta-terms"])
def test_catalog_factors_work_cold(capsys, argv):
    proc = _python("-W", "error", "-c", _CLI_CHILD, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "numpy loaded: True\n"
    assert main(argv) == 0
    want = capsys.readouterr().out
    if argv[0] == "verify":
        # the report's timing and timestamp fields differ from run to run
        strip = lambda text: [{k: v for k, v in rec.items() if k != "runtime_ms"}
                              for rec in json.loads(text)["records"]]
        assert strip(proc.stdout) == strip(want)
    else:
        assert proc.stdout == want


def test_user_callable_works_cold():
    # a callable passed to tanh_sinh takes the plain rows: it must load
    # numpy itself, before any catalog integral has run
    code = ("import sys; from trisum.quadrature import tanh_sinh; "
            "print('numpy' in sys.modules, tanh_sinh(lambda x, xc: x * xc).hex())")
    proc = _python("-W", "error", "-c", code)
    assert (proc.returncode, proc.stderr) == (0, "")
    from trisum.quadrature import tanh_sinh
    assert proc.stdout == f"False {tanh_sinh(lambda x, xc: x * xc).hex()}\n"


def test_import_loads_no_dataclasses_inspect_or_csv():
    proc = _python("-c", "import sys; before = set(sys.modules); "
                         "import trisum, trisum.cli; "
                         f"print(sorted(set(sys.modules) - before & set({_UNWANTED!r})))")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_import_loads_no_random_without_site():
    # only the specfun-identities suite needs random.  Many site setups
    # load it at start-up, so the child runs without site (-S), where the
    # check above would not see it
    proc = _python("-S", "-c", "import sys; before = set(sys.modules); "
                               "import trisum, trisum.cli; "
                               "print('random' in set(sys.modules) - before)")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


@pytest.mark.parametrize("argv", [
    ["eval", "--family", "A1", "--z", "2", "--method", "series"],
    ["eval", "--family", "A1", "--z", "2", "--method", "all", "--format", "json"],
    ["integral", "--kernel", "lnx", "--variant", "thm1", "--z", "2", "--m", "1"],
    ["constants", "--format", "json"],
    ["verify", "--suite", "specfun-identities"],
], ids=["eval-table", "eval-json", "integral-table", "constants-json", "verify-table"])
def test_json_and_table_output_leave_csv_unloaded(argv):
    proc = _python("-c", _CSV_CHILD, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "csv loaded: False\n"


@pytest.mark.parametrize("argv", [
    ["eval", "--family", "A1", "--z", "2", "--method", "all"],
    ["integral", "--kernel", "lnx", "--variant", "thm1", "--z", "2", "--m", "1"],
    ["constants"],
], ids=["eval", "integral", "constants"])
def test_csv_output_works_cold(capsys, argv):
    argv = [*argv, "--format", "csv"]
    proc = _python("-c", _CSV_CHILD, *argv)
    assert proc.returncode == 0, proc.stderr
    # False only where the site setup loaded csv before the import
    assert proc.stderr in ("csv loaded: True\n", "csv loaded: False\n")
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert len(rows) > 1 and len({len(r) for r in rows}) == 1
