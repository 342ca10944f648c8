"""numpy is imported when a residue array is first built, not at import.

Each check runs in a fresh interpreter, where nothing has loaded numpy or
bound it in linalg yet.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lefschetz_kit import linalg
from lefschetz_kit.cli import main

ROOT = Path(__file__).resolve().parent.parent

# runs one query through cli.main and prints whether numpy was loaded
# before and after it, the exit code and the report
QUERY_SCRIPT = """
import contextlib, io, json, sys
from lefschetz_kit import cli
before = "numpy" in sys.modules
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = cli.main(sys.argv[1:])
print(json.dumps([before, "numpy" in sys.modules, code, buf.getvalue()]))
"""


def fresh(*args):
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, check=True, cwd=ROOT)


def normalize(text):
    return re.sub(r'"timing_ms": \d+', '"timing_ms": 0', text)


@pytest.mark.parametrize("argv, loads", [
    (["hilbert", "--n", "3", "--a", "2"], False),
    (["initial", "--n", "8", "--a", "2", "--d", "5"], False),
    (["froberg", "--n", "6", "--a", "2", "--seeds", "1"], False),
    (["paths", "--n", "9", "--d", "3", "--seeds", "1"], False),
    (["inject", "--a", "2", "--d", "5", "--n-range", "13..13", "--seeds", "1",
      "--field", "prime:51999971"], True),
    (["witness", "--n", "6", "--d", "3", "--seeds", "1"], True),
])
def test_numpy_loads_only_where_a_residue_array_is_built(argv, loads, capsys):
    # over Q, initial, froberg and paths eliminate integer lists; inject
    # modulo p and witness route two build residue arrays
    before, after, code, out = json.loads(
        fresh("-c", QUERY_SCRIPT, *argv).stdout)
    assert before is False
    assert after is loads
    assert main(argv) == code == 0
    assert normalize(out) == normalize(capsys.readouterr().out)


P = linalg.DEFAULT_PRIME
ROWS = [[P - 1, 2, 0, 5], [3, P - 2, 7, 1], [P - 4, 4, 7, 6]]

# each kernel's call on a small input, as the first use of linalg's numpy;
# the code leaves its outcome in result
KERNEL_CALLS = {
    "_dtype": "result = str(linalg._dtype(P))",
    "_mul_mersenne": (
        "out = np.ones((4, 4), dtype=np.uint64)\n"
        "linalg._mul_mersenne(np.array(ROWS[0], dtype=np.uint64)[:, None],\n"
        "                     np.array(ROWS[1], dtype=np.uint64), out)\n"
        "result = out.tolist()"),
    "_forward_numpy": (
        "M = np.array(ROWS, dtype=np.uint64)\n"
        "result = linalg._forward_numpy(M, P), M.tolist()"),
    "_rref_mod_numpy": (
        "red, piv = linalg._rref_mod_numpy(np.array(ROWS) % 1000003, 1000003)\n"
        "result = red.tolist(), piv"),
    "_mod_matmul": (
        "A = np.array(ROWS) % 101\n"
        "result = linalg._mod_matmul(A, A.T.copy(), 101).tolist()"),
    "_from_triplets": (
        "result = linalg._from_triplets(([0, 1], [1, 3], [4, 9]), 2, 4,\n"
        "                               linalg.prime_field(P)).tolist()"),
    "_eliminate": (
        "red, piv = linalg._eliminate(ROWS, 4, linalg.prime_field(P), reduce=True)\n"
        "result = red.tolist(), piv"),
}


@pytest.mark.parametrize("kernel", sorted(KERNEL_CALLS))
def test_kernel_binds_numpy_on_first_use(kernel):
    # the caller has imported numpy, as tests do, but linalg has not bound it
    code = KERNEL_CALLS[kernel]
    script = ("import numpy as np\n"
              "from lefschetz_kit import linalg\n"
              "assert linalg.np is None and linalg._P61 is None\n"
              f"P, ROWS = {P}, {ROWS!r}\n"
              f"{code}\n"
              "print(repr(result))\n")
    here = {"np": np, "linalg": linalg, "P": P, "ROWS": ROWS}
    exec(code, here)
    assert fresh("-c", script).stdout == repr(here["result"]) + "\n"


def test_mersenne_tests_pass_as_the_first_numpy_use():
    # the first of them calls _mul_mersenne before any other kernel
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                           "no:cacheprovider", "tests/test_linalg.py", "-k",
                           "mersenne"], capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
