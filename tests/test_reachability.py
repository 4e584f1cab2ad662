"""Every function of the package is reached by a command, or says why not.

The guard runs the command-line tool in-process under ``sys.setprofile``
at short sizes: ``verify --seed 7``, ``kernel-table``, ``region-dump``, a
short ``simulate-full`` and ``simulate-reduced`` in both modes, and one
command line that argparse rejects (``verify --seed x``, exit 2).  Every
module-level function and every method (plain, class, static or property
getter) defined in ``src/comptonsim`` must be called during those runs, or
be on ``ALLOWLIST`` with a one-line reason.  An allowlisted name that the
runs do reach, or that no longer exists, fails the guard too, so the list
stays short and true.  Functions a run never calls are how one job comes
to be done in two places: a per-state twin of a batched run path, or a
parameter that no caller sets, looks alive only while a test calls it.

A second guard checks the other direction of a deletion: every name in a
module's ``__all__`` must still be defined there, or ``from ... import *``
and any tool that looks up the exported names would fail.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import sys

import comptonsim
from comptonsim.cli import main as cli_main

PACKAGE = os.path.dirname(os.path.abspath(comptonsim.__file__))

ALLOWLIST = {
    "full_solver.BalanceReport.passed": "a result property that tests read",
    "full_solver.OriginMassReport.extrapolated": "a result property of origin_mass_estimate that tests read",
    "full_solver.RegularizedKernel.coupling": "read by perfbench/ (ROADMAP item 1 retires the dense table)",
    "full_solver.origin_mass_estimate": "kept for the origin epsilon-ladder of ROADMAP item 3",
    "kernel._diagonal_series_coefficients": "runs at import to build _DIAGONAL_SERIES, before any command",
    "measure.HybridMeasure.origin_mass": "a state property that tests read",
    "measure.measure_from_dict": "reads a snapshot file back bit for bit, the documented round trip tests check",
    "reduced_solver.LyapunovReport.passed": "a result property that tests read",
}

FULL_CONFIG = {"grid": {"n": 48}, "solver": {"t_end": 0.01}}
# the configs of the CI step "Reduced runs from the command line"
COARSE_PICARD_CONFIG = {
    "grid": {"min": 1.0, "max": 30.0, "n": 4},
    "initial": {"preset": "truncated_planck", "mu": 0.0, "support_min": 1.0},
    "reduced": {"t_end": 1.0, "stationarity_window": 0.5},
    "diagnostics": {"eta": 0.3},
}
TWO_ATOMS_CONFIG = {
    "initial": {"preset": "atoms", "atoms": [[1.0, 0.4], [9.0, 0.6]]},
    "reduced": {"t_end": 5.0, "n_record": 101},
}


def defined_functions() -> dict:
    """Code object -> 'module.name' or 'module.Class.name' for every function
    and method whose source is in the package (dataclass-made methods are not)."""
    out = {}
    for info in pkgutil.iter_modules([PACKAGE]):
        mod = importlib.import_module(f"comptonsim.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out[obj.__code__] = f"{info.name}.{name}"
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member) and member.__code__.co_filename.startswith(PACKAGE):
                        out[member.__code__] = f"{info.name}.{name}.{attr}"
    return out


def commands(tmp_path) -> list[list[str]]:
    def config(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return [
        ["verify", "--seed", "7", "--out", str(tmp_path / "verify")],
        ["kernel-table", "--out", str(tmp_path / "kernel.csv")],
        ["region-dump", "--out", str(tmp_path / "region.csv")],
        ["simulate-full", "--config", config("full.json", FULL_CONFIG), "--out", str(tmp_path / "full")],
        ["simulate-reduced", "--mode", "picard", "--config", config("picard.json", COARSE_PICARD_CONFIG),
         "--out", str(tmp_path / "picard")],
        ["simulate-reduced", "--mode", "atoms", "--config", config("atoms.json", TWO_ATOMS_CONFIG),
         "--out", str(tmp_path / "atoms")],
    ]


def test_every_function_is_reached_or_allowlisted(tmp_path):
    defined = defined_functions()  # imports every module first, as the other tests may have
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [cli_main(args) for args in commands(tmp_path)]
            usage_error = cli_main(["verify", "--seed", "x"])
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(codes) and usage_error == 2
    unreached = {name for code, name in defined.items() if code not in reached}
    assert sorted(unreached - ALLOWLIST.keys()) == [], "never called: delete them, or allowlist them with a reason"
    assert sorted(ALLOWLIST.keys() - unreached) == [], "stale allowlist entries: called, or no longer defined"


def test_every_exported_name_is_defined():
    missing = []
    for info in pkgutil.iter_modules([PACKAGE]):
        mod = importlib.import_module(f"comptonsim.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == [], "exported by __all__ but not defined"
