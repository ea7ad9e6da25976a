"""Importing the package, and every array-free path, loads no numpy.

Nor does the import load dataclasses or the inspect machinery it pulls
in: the package's three records are plain slotted classes.

numpy is imported inside the Möbius sieve, so only the sieve walk pays
for it, on first use; both oracle walks, over subsets and over tuples,
are plain Python.  Each check runs in a fresh interpreter, since this
test process has loaded numpy long before.
"""

import subprocess
import sys
from pathlib import Path

from relprime import f, parse_set_spec

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import relprime, relprime.cli
from pathlib import Path
assert Path(sys.argv[1]) in Path(relprime.__file__).resolve().parents
assert "relprime._kernels" in sys.modules
assert "numpy" not in sys.modules, "import"
assert "dataclasses" not in sys.modules, "import"
assert "inspect" not in sys.modules, "import"
relprime.phi(relprime.parse_set_spec("1..5000"), 30030)
relprime.f(relprime.parse_set_spec("1000000000000..1000000000002"))
relprime.t_count(50, 3, 30030)
X = relprime.parse_set_spec("1000000000000..1000000000021")
relprime.brute_f(X)
relprime.brute_phi(X, 30030)
relprime.brute_tuples(60, 3, 30030, "strict")
relprime.brute_tuples(300, 2, 6, "nondecreasing")
assert "numpy" not in sys.modules, "array-free paths"
value = relprime.f(relprime.parse_set_spec("1..2000"))
assert "numpy" in sys.modules, "sieve walk"
print(value)
"""


def test_numpy_loads_only_when_an_array_kernel_runs():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == f(parse_set_spec("1..2000"))

