"""No run path imports SciPy: the package needs numpy only.

A fresh interpreter has ``sys.modules["scipy"] = None``, so any SciPy
import, at module top or inside a function, raises ImportError; it then
imports the command line and the harness and runs a short full-equation
experiment and short reduced runs in both modes.  None of them may load
``numpy.ma`` either (about 10 ms of import, reached through np.unique),
nor ``numpy.polynomial``, ``fractions`` or ``decimal``: the kernel's
Gauss-Legendre rules and diagonal series are literal floats.
"""

from __future__ import annotations

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = r"""
import os, sys
sys.modules["scipy"] = None
import comptonsim.cli
from comptonsim import harness

out = sys.argv[1]
full = harness.load_config(data={"grid": {"min": 0.02, "max": 22.0, "n": 48}, "solver": {"t_end": 0.01}}, equation="full")
harness.run_full_experiment(full, os.path.join(out, "full"))
atoms = harness.load_config(data={
    "initial": {"preset": "atoms", "atoms": [[1.05, 0.3], [1.2, 0.3], [3.0, 0.4]]},
    "reduced": {"t_end": 5000.0, "n_record": 501, "stationarity_window": 50.0},
}, equation="reduced")
harness.run_reduced_experiment(atoms, os.path.join(out, "atoms"), mode="atoms")
picard = harness.load_config(data={
    "grid": {"min": 0.5, "max": 30.0, "n": 32},
    "initial": {"preset": "truncated_planck", "mu": -0.2, "support_min": 0.5},
    "reduced": {"t_end": 0.1, "dt": 1e-3, "stationarity_window": 0.05},
    "diagnostics": {"eta": 0.3},
}, equation="reduced")
harness.run_reduced_experiment(picard, os.path.join(out, "picard"), mode="picard")
loaded = sorted(name for name, mod in sys.modules.items() if name.startswith("scipy") and mod is not None)
print("scipy modules:", loaded)
masked = sorted(name for name in sys.modules if name == "numpy.ma" or name.startswith("numpy.ma."))
print("numpy.ma modules:", masked)
unneeded = sorted(
    name for name in sys.modules
    if name in ("fractions", "decimal") or name == "numpy.polynomial" or name.startswith("numpy.polynomial.")
)
print("numpy.polynomial, fractions or decimal modules:", unneeded)
sys.exit(1 if loaded or masked or unneeded else 0)
"""


def test_runs_never_import_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for mode in ("full", "atoms", "picard"):
        assert os.path.exists(tmp_path / mode / "manifest.json")
    # both classifications measured their bounded-Lipschitz gap; the atoms converge
    assert '"stationarity_gap"' in (tmp_path / "atoms" / "limit.json").read_text()
    assert "bounded-Lipschitz stationarity gap" in (tmp_path / "picard" / "limit.json").read_text()
