"""The package runs with numpy blocked, and its import stays light.

relprime has no runtime dependency: the Möbius sieve, both walks over
it and both oracle walks are plain Python.  The probe blocks numpy
before the package is imported, so any import of it raises, then runs
every counter, both oracle walks and the CLI, and prints their values
for this process to compare with its own.  Nor does the import load
dataclasses or the inspect machinery it pulls in: the package's three
records are plain slotted classes.  The probe runs in a fresh
interpreter, since this test process has loaded numpy long before.
"""

import json
import subprocess
import sys
from pathlib import Path

import relprime

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import relprime, relprime.cli
from pathlib import Path
assert Path(sys.argv[1]) in Path(relprime.__file__).resolve().parents
assert "dataclasses" not in sys.modules, "import"
assert "inspect" not in sys.modules, "import"
values = [call(relprime) for call in eval(sys.argv[2])]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    status = relprime.cli.main(["count", "G", "--n", "3000", "--k", "2"])
values.append((status, json.loads(out.getvalue())["result"]))
print(json.dumps([str(v) for v in values]))
"""

X = "1000000000000..1000000000021"
CALLS = f"""[
    lambda r: r.f(r.parse_set_spec("1..2000")),
    lambda r: r.f_k(r.parse_set_spec("1..2000 + ap(2001,7,300)"), 3),
    lambda r: r.phi(r.parse_set_spec("1..5000"), 30030),
    lambda r: r.f(r.parse_set_spec("{X}")),
    lambda r: r.g_count(3000, 2),
    lambda r: r.h_count(500, 3),
    lambda r: r.s_count(1000, 3, 30030),
    lambda r: r.l_count(300, 2, 6),
    lambda r: r.t_count(50, 3, 30030),
    lambda r: r.brute_f(r.parse_set_spec("{X}")),
    lambda r: r.brute_phi(r.parse_set_spec("{X}"), 30030),
    lambda r: r.brute_tuples(60, 3, 30030, "strict"),
    lambda r: r.brute_tuples(300, 2, 6, "nondecreasing"),
]"""


def test_every_path_runs_with_numpy_blocked():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC), CALLS],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    expected = [call(relprime) for call in eval(CALLS)]
    expected.append((0, str(relprime.g_count(3000, 2))))
    assert json.loads(proc.stdout) == [str(v) for v in expected]
