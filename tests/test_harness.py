"""Config loading, presets, determinism, manifest hygiene, and the CLI."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from comptonsim.cli import main as cli_main
from comptonsim.harness import (
    ParseError,
    UnknownPreset,
    ValidationError,
    build_initial,
    load_config,
    preset_names,
    run_full_experiment,
    run_preset,
    run_reduced_experiment,
)
from comptonsim.measure import Grid
from comptonsim.reduced_solver import AtomTrajectory, PicardTrajectory
from oracles import growth_bound

EXAMPLE51_CONFIG = {
    "initial": {"preset": "atoms", "atoms": [[1.0, 0.6], [1.5, 0.2], [2.4, 0.2]]},
    "reduced": {
        "t_end": 50.0,
        "n_record": 5001,
        "rate_table": [[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 0.0]],
        "stationarity_window": 5.0,
        "limit_tol": 1e-4,
    },
}

# four grid nodes, each its own decoupled block, one cell (2.11) from the next;
# the Picard state is stationary, so every block keeps its initial mass
COARSE_PICARD_CONFIG = {
    "grid": {"min": 1.0, "max": 30.0, "n": 4},
    "initial": {"preset": "truncated_planck", "mu": 0.0, "support_min": 1.0},
    "reduced": {"t_end": 1.0, "stationarity_window": 0.5},
    "diagnostics": {"eta": 0.3},
}

# no initial mass: the whole truncated Planck density lies above the grid
MASSLESS_PICARD_CONFIG = {**COARSE_PICARD_CONFIG, "grid": {"min": 1.0, "max": 30.0, "n": 8},
                          "initial": {"preset": "truncated_planck", "mu": 0.0, "support_min": 100.0}}
MASSLESS_FULL_CONFIG = {"initial": {"preset": "truncated_planck", "support_min": 100.0},
                        "grid": {"n": 16}, "solver": {"t_end": 0.01}}

TWO_ATOMS = {"initial": {"preset": "atoms", "atoms": [[1.0, 0.4], [9.0, 0.6]]}}

# a full run whose density moves: a bump on a Planck density, 20 steps recorded every 5
SHORT_FULL_CONFIG = {
    "grid": {"min": 0.05, "max": 15.0, "n": 48},
    "initial": {"preset": "bump", "mu": -1.0},
    "solver": {"t_end": 0.02, "record_every": 5},
}

# retired fields, each with a value it once took: setting one is a ParseError
RETIRED_FIELDS = {
    "solver.dt_max": 1e-2,
    "solver.scheme": "rk4",
    "solver.track_dissipation": True,
    "solver.track_origin": True,
    "reduced.disable_cutoff": False,
    "reduced.rtol": 1e-12,
    "reduced.iter_tol": 1e-12,
    "reduced.flat_r": 1.0,
    "reduced.window": 0.25,
    "diagnostics.kernel_tol": 1e-10,
    "diagnostics.moment_orders": [1.0, 2.0, 3.0],
}

# command arguments outside their domain, each with its stderr message; each
# was a ValueError traceback (exit 1), and the negative seeds left a partly
# written or an empty output directory
BAD_ARGUMENTS = {
    "kernel-table --tol 0": "tol must lie in (0, 1e-3]",
    "kernel-table --grid-min -1": "grid_min and grid_max must be positive and finite",
    "kernel-table --grid-points -3": "grid_points must be >= 1; got -3",
    "kernel-table --beta 0": "beta must be positive",
    "region-dump --theta 1.5": "need 0 < theta < theta1 < 1",
    "region-dump --theta1 0.4": "need 0 < theta < theta1 < 1",
    "region-dump --delta-star 0": "delta_star must be positive",
    # overflowed the band-constant residual: exit 0, and a cutoff that divided by rho_star - rho1 = 0
    "region-dump --delta-star 1e300": "the band-constant residual overflows at delta_star=1e+300",
    # a NoRoot traceback (exit 1)
    "region-dump --theta 1e-300": "no band constant for theta=1e-300",
    "verify --seed -1": "--seed: must be >= 0; got -1",
    "preset kernel-verify --seed -1": "--seed: must be >= 0; got -1",
    # argparse's own errors printed the usage too, two to four lines
    "verify --seed x": "comptonsim verify: error: argument --seed: invalid int value: 'x'",
    "simulate-reduced --mode foo": "comptonsim simulate-reduced: error: argument --mode: invalid choice: 'foo'",
    "verify --bogus": "comptonsim: error: unrecognized arguments: --bogus",
    "simulate-full": "comptonsim simulate-full: error: the following arguments are required: --config",
    "nope": "comptonsim: error: argument command: invalid choice: 'nope'",
}

# two atoms and a bad reduced value; the atom run checks the table before it writes
BAD_TABLE = {"initial": TWO_ATOMS["initial"], "reduced": {"rate_table": [[0.0, 1.0], [1.0, 0.0]]}}
WRONG_SHAPE_TABLE = {"initial": TWO_ATOMS["initial"], "reduced": {"rate_table": EXAMPLE51_CONFIG["reduced"]["rate_table"]}}
STRING_LIMIT_TOL = {"initial": TWO_ATOMS["initial"], "reduced": {"limit_tol": "x", "t_end": 1.0}}
# eta * the top grid node (0.375 * 3000) or the largest atom location (0.375 * 2000) exceeds 700
WIDE_GRID = {"grid": {"min": 0.02, "max": 3000.0, "n": 32}, "solver": {"t_end": 0.01}}
FAR_ATOM = {"initial": {"preset": "atoms", "atoms": [[1.0, 0.4], [2000.0, 0.6]]}}


class TestLoadConfig:
    def test_minimal_defaults(self):
        cfg = load_config(data={})
        assert cfg.physical.beta == 1.0
        assert cfg.truncation.theta == 0.5
        assert 0.25 < cfg.eta < 0.5

    def test_eta_window_full_equation(self):
        with pytest.raises(ValidationError, match="1/2"):
            load_config(data={"diagnostics": {"eta": 0.6}}, equation="full")

    def test_eta_lower_bound_reduced(self):
        with pytest.raises(ValidationError, match="reduced"):
            load_config(data={"diagnostics": {"eta": 0.2}}, equation="reduced")
        cfg = load_config(data={"diagnostics": {"eta": 0.6}}, equation="reduced")
        assert cfg.eta == 0.6

    def test_theta_ordering(self):
        with pytest.raises(ValidationError, match="theta1"):
            load_config(data={"truncation": {"theta": 0.5, "theta1": 0.4}})

    def test_unknown_field_is_parse_error(self):
        with pytest.raises(ParseError, match="solver.bogus"):
            load_config(data={"solver": {"bogus": 1}})

    @pytest.mark.parametrize("field", RETIRED_FIELDS)
    def test_dt_max_is_no_longer_a_field(self, field):
        section, key = field.split(".")
        with pytest.raises(ParseError, match=field):
            load_config(data={section: {key: RETIRED_FIELDS[field]}})

    @pytest.mark.parametrize("field, value", [
        ("t_end", -1.0), ("t_end", 0.0), ("t_end", float("inf")), ("dt", 0.0), ("dt", -1.0), ("n_record", 1),
        ("n_record", float("inf")), ("limit_tol", float("nan")), ("stationarity_window", 0.0),
    ])
    def test_bad_reduced_control_names_its_field(self, field, value):
        with pytest.raises(ValidationError, match=f"reduced.{field}: "):
            load_config(data={"reduced": {field: value}}, equation="reduced")

    @pytest.mark.parametrize("value", [-1.0, float("inf"), float("nan")])
    def test_bad_solver_t_end_names_its_field(self, value):
        with pytest.raises(ValidationError, match="solver.t_end: "):
            load_config(data={"solver": {"t_end": value}}, equation="full")

    def test_missing_file(self):
        with pytest.raises(ParseError, match="not found"):
            load_config(path="/nonexistent/config.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ParseError, match="valid JSON"):
            load_config(path=str(p))

    def test_unknown_equation(self):
        with pytest.raises(ValueError, match="equation"):
            load_config(data={}, equation="atoms")

    def test_grid_validation_path(self):
        with pytest.raises(ValidationError, match="grid"):
            load_config(data={"grid": {"min": -1.0, "max": 1.0, "n": 10}})


class TestInitialData:
    def test_presets_shapes(self):
        g = Grid.log_spaced(0.1, 10.0, 32)
        planck = build_initial({"preset": "planck_mu", "mu": -1.0}, g)
        assert planck.density is not None and planck.density.max() > 0.0
        doubled = build_initial({"preset": "scaled_planck", "factor": 2.0, "mu": -1.0}, g)
        assert np.allclose(doubled.density, 2.0 * planck.density)
        bump = build_initial({"preset": "bump", "mu": 0.0, "amplitude": 1.0, "center": 3.0, "width": 0.5}, g)
        assert bump.density is not None
        atoms = build_initial({"preset": "atoms", "atoms": [[1.0, 0.5]]}, g)
        assert atoms.atoms == [(1.0, 0.5)]
        cut = build_initial({"preset": "truncated_planck", "mu": 0.0, "support_min": 1.0}, g)
        assert np.all(cut.density[g.nodes < 1.0] == 0.0)

    def test_unknown_preset(self):
        g = Grid.log_spaced(0.1, 10.0, 8)
        with pytest.raises(ValidationError):
            build_initial({"preset": "nope"}, g)


class TestPresets:
    def test_registry(self):
        assert set(preset_names()) == {
            "equilibrium",
            "over-planck",
            "example51",
            "flat-picard",
            "kernel-verify",
        }

    def test_unknown_name(self, tmp_path):
        with pytest.raises(UnknownPreset):
            run_preset("nonsense", str(tmp_path))

    def test_example51_preset(self, tmp_path):
        manifest = run_preset("example51", str(tmp_path / "ex51"))
        assert manifest.all_passed
        names = {a["name"] for a in manifest.assertions}
        assert {"middle_atom_extinct", "right_atom_floor", "survivors_are_endpoints"} <= names

    def test_kernel_verify_preset(self, tmp_path):
        manifest = run_preset("kernel-verify", str(tmp_path / "kv"), seed=123)
        assert manifest.all_passed


class TestManifest:
    def test_outputs_listed_no_orphans(self, tmp_path):
        out = tmp_path / "run"
        cfg = load_config(data=EXAMPLE51_CONFIG)
        manifest, _ = run_reduced_experiment(cfg, str(out), mode="atoms")
        written = {p for p in os.listdir(out) if p != "manifest.json"}
        assert written == set(manifest.outputs)

    def test_derived_constants_recorded(self, tmp_path):
        cfg = load_config(data=EXAMPLE51_CONFIG)
        manifest, _ = run_reduced_experiment(cfg, str(tmp_path / "r"), mode="atoms")
        assert "rho_star" in manifest.derived_constants
        with open(tmp_path / "r" / "manifest.json") as f:
            payload = json.load(f)
        assert payload["config_hash"] == manifest.config_hash

    def test_zero_table_limit_is_written(self, tmp_path):
        # {1.0, 1.2} would be one block under the cutoff; the all-zero table
        # couples nothing, so every atom is its own block and its own limit
        cfg = load_config(data={
            "initial": {"preset": "atoms", "atoms": [[1.0, 0.3], [1.2, 0.3], [5.0, 0.4]]},
            "reduced": {"t_end": 5.0, "n_record": 101, "rate_table": np.zeros((3, 3)).tolist()},
        }, equation="reduced")
        out = tmp_path / "zero"
        run_reduced_experiment(cfg, str(out), mode="atoms")
        manifest = json.loads((out / "manifest.json").read_text())
        limit = json.loads((out / "limit.json").read_text())
        assert limit["pairwise_decoupled"] is True
        assert [x for x, _ in limit["atoms"]] == [1.0, 1.2, 5.0]
        assert {a["name"]: a["passed"] for a in manifest["assertions"]}["limit_structure"] is True

    def test_snapshots_hold_the_initial_and_final_bits(self, tmp_path):
        cfg = load_config(data={
            "grid": {"min": 0.05, "max": 15.0, "n": 48},
            "initial": {"preset": "bump", "mu": -1.0},
            "solver": {"t_end": 0.02, "record_every": 5},
        }, equation="full")
        out = tmp_path / "full"
        manifest, traj = run_full_experiment(cfg, str(out))
        snapshots = [name for name in manifest.outputs if name.startswith("snapshot_")]
        assert snapshots == ["snapshot_0.000000.json", "snapshot_0.020000.json"]
        first, last = (np.array(json.loads((out / name).read_text())["density"]) for name in snapshots)
        assert np.array_equal(first.view(np.uint64), cfg.initial_measure().density.view(np.uint64))
        assert np.array_equal(last.view(np.uint64), traj.final.view(np.uint64))

    def test_long_full_run_writes_every_output(self, tmp_path):
        # C_eta t passes 709.78 at t = 60.5, where e^{C_eta t} overflows a float
        cfg = load_config(data={
            "grid": {"n": 48}, "solver": {"t_end": 70.0, "dt_init": 0.01, "record_every": 100},
        }, equation="full")
        out = tmp_path / "long"
        manifest, traj = run_full_experiment(cfg, str(out))
        assert sorted(os.listdir(out)) == sorted(manifest.outputs + ["manifest.json"])
        assert len(manifest.outputs) == 3
        checks = {a["name"]: a["passed"] for a in manifest.assertions}
        assert checks["exp_moment_growth_bound"] is True
        assert all(checks.values())
        c_eta = manifest.derived_constants["C_eta"]
        bound = growth_bound(traj, c_eta)
        finite = c_eta * traj.times < 709.0
        assert finite[0] and not finite[-1]
        assert np.all(np.isfinite(bound[finite]))
        assert np.all(bound[c_eta * traj.times > 710.0] == np.inf)
        detail = next(a["detail"] for a in manifest.assertions if a["name"] == "exp_moment_growth_bound")
        assert detail == f"max X_eta/bound {np.max(traj.X_eta / bound):.6f}"

    def test_byte_identical_reruns(self, tmp_path):
        # an atom run, a Picard run and a full run, each twice
        for data, mode in ((EXAMPLE51_CONFIG, "atoms"), (COARSE_PICARD_CONFIG, "picard"), (SHORT_FULL_CONFIG, "full")):
            outs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{mode}-{tag}"
                if mode == "full":
                    run_full_experiment(load_config(data=data, equation="full"), str(out))
                else:
                    run_reduced_experiment(load_config(data=data, equation="reduced"), str(out), mode=mode)
                outs.append({
                    name: (out / name).read_bytes()
                    for name in os.listdir(out)
                    if name != "manifest.json"  # manifest carries a timestamp by design
                })
            assert len(outs[0]) >= 2 and outs[0] == outs[1], mode


def assert_invalid_config(tmp_path, capsys, command, data, message):
    """The command exits 2 with one line (no traceback) on stderr and writes no output directory."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "out"
    rc = cli_main([command[0], "--config", str(cfg_path), *command[1:], "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and message in err
    assert not out.exists()


class TestCli:
    def test_kernel_table(self, tmp_path, capsys):
        out = tmp_path / "kt.csv"
        rc = cli_main(["kernel-table", "--grid-points", "3", "--out", str(out)])
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert header == "x,y,B,err"

    def test_region_dump(self, tmp_path):
        out = tmp_path / "region.csv"
        rc = cli_main(["region-dump", "--grid-points", "4", "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[0] == "x,gamma1,gamma2,d1_lower,d1_upper"

    def test_simulate_reduced_roundtrip(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(EXAMPLE51_CONFIG))
        out = tmp_path / "runout"
        rc = cli_main(["simulate-reduced", "--config", str(cfg_path), "--mode", "atoms", "--out", str(out)])
        assert rc == 0
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,M0,M1,M2,X_eta,D_2"
        limit = json.loads((out / "limit.json").read_text())
        assert limit["mode"] == "atoms"

    def test_atom_run_manifest_records_the_evaluation_count(self, tmp_path):
        cfg = load_config(data=EXAMPLE51_CONFIG, equation="reduced")
        manifest, traj = run_reduced_experiment(cfg, str(tmp_path / "atoms"), mode="atoms")
        recorded = json.loads((tmp_path / "atoms" / "manifest.json").read_text())["telemetry"]
        assert recorded == {"dop853_nfev": traj.nfev} == manifest.telemetry
        assert traj.nfev > 0

    def test_simulate_full_small(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "grid": {"min": 0.05, "max": 15.0, "n": 48},
            "initial": {"preset": "bump", "mu": 0.0},
            "solver": {"t_end": 0.02, "record_every": 5},
        }))
        out = tmp_path / "full"
        rc = cli_main(["simulate-full", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,M0,X_eta,H,D_total,alpha_est"
        snaps = [p for p in os.listdir(out) if p.startswith("snapshot_")]
        assert snaps

    def test_simulate_full_mass_drift_fails_with_outputs(self, tmp_path):
        # roundoff drift of this run is about 4e-16, above the tolerance
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "grid": {"min": 0.05, "max": 15.0, "n": 48},
            "initial": {"preset": "bump", "mu": -1.0},
            "solver": {"t_end": 0.05, "record_every": 5, "mass_tolerance": 1e-18},
        }))
        out = tmp_path / "full"
        rc = cli_main(["simulate-full", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        manifest = json.loads((out / "manifest.json").read_text())
        for name in manifest["outputs"]:
            assert (out / name).is_file()
        assert "trajectory.csv" in manifest["outputs"]
        assert any(name.startswith("snapshot_") for name in manifest["outputs"])
        checks = {a["name"]: a for a in manifest["assertions"]}
        mass = checks.pop("mass_conservation")
        assert not mass["passed"]
        assert float(mass["detail"].split()[-1]) > 1e-18
        assert checks and all(a["passed"] for a in checks.values())

    def test_snapshot_names_stay_distinct_on_short_horizons(self, tmp_path):
        # both snapshot times print as 0.000000
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "grid": {"min": 0.05, "max": 15.0, "n": 48},
            "initial": {"preset": "bump", "mu": -1.0},
            "solver": {"t_end": 5e-7, "dt_init": 1e-7},
        }))
        out = tmp_path / "full"
        assert cli_main(["simulate-full", "--config", str(cfg_path), "--out", str(out)]) == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        snapshots = [name for name in outputs if name.startswith("snapshot_")]
        assert snapshots == ["snapshot_0.000000_0.json", "snapshot_0.000000_5.json"]
        assert sorted(os.listdir(out)) == sorted(outputs + ["manifest.json"])
        first, last = (json.loads((out / name).read_text())["density"] for name in snapshots)
        cfg = load_config(path=str(cfg_path), equation="full")
        assert first == [float(v) for v in cfg.initial_measure().density]
        assert first != last

    def test_coarse_picard_blocks_keep_their_mass(self, tmp_path, capsys):
        # a block's mass window once reached a whole cell out, into the next block
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(COARSE_PICARD_CONFIG))
        out = tmp_path / "picard"
        assert cli_main(["simulate-reduced", "--config", str(cfg_path), "--mode", "picard", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4 and all(line.startswith("[PASS] ") for line in lines)
        limit = json.loads((out / "limit.json").read_text())
        assert limit["mass_sums_ok"] and limit["component_conservation_ok"]
        assert len(limit["atoms"]) == 4 and all(a == b for a, b in limit["component_mass_table"])

    def test_each_series_is_computed_once(self, tmp_path, monkeypatch):
        # trajectory.csv and the Lyapunov check once computed M1, M2, X_eta and D_2 each
        calls = []
        for cls in (AtomTrajectory, PicardTrajectory):
            for name in ("moment_series", "exp_moment_series", "dissipation_series"):
                real = getattr(cls, name)
                monkeypatch.setattr(cls, name, lambda traj, arg, real=real, name=name: calls.append((name, arg)) or real(traj, arg))
        for data, mode in ((TWO_ATOMS, "atoms"), (COARSE_PICARD_CONFIG, "picard")):
            calls.clear()
            manifest, _ = run_reduced_experiment(load_config(data=data, equation="reduced"), str(tmp_path / mode), mode=mode)
            assert calls.count(("dissipation_series", 2.0)) == 1
            assert len(calls) == len(set(calls)) == 6  # M1, M2, M3, X_eta, D_2 and D_3
            assert manifest.all_passed

    def test_massless_picard_run_is_its_own_limit(self, tmp_path):
        # an empty initial support has no tail thresholds; its quantiles were an
        # IndexError after trajectory.csv, before limit.json and the manifest
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(MASSLESS_PICARD_CONFIG))
        out = tmp_path / "picard"
        assert cli_main(["simulate-reduced", "--config", str(cfg_path), "--mode", "picard", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["trajectory.csv", "limit.json", "snapshot_1.000000.json"]
        assert sorted(os.listdir(out)) == sorted(manifest["outputs"] + ["manifest.json"])
        assert all(a["passed"] for a in manifest["assertions"])
        limit = json.loads((out / "limit.json").read_text())
        assert limit["atoms"] == [] and limit["initial_component_masses"] == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_massless_full_run_reports_no_nan(self, tmp_path):
        # the growth bound is 0 at every record; X_eta/bound was 0/0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(MASSLESS_FULL_CONFIG))
        out = tmp_path / "full"
        assert cli_main(["simulate-full", "--config", str(cfg_path), "--out", str(out)]) == 0
        text = (out / "manifest.json").read_text()
        assert "nan" not in text.lower()
        bound = next(a for a in json.loads(text)["assertions"] if a["name"] == "exp_moment_growth_bound")
        assert bound["passed"] and bound["detail"] == "max X_eta/bound 0.000000"

    @pytest.mark.parametrize("command", [["simulate-full"], ["simulate-reduced", "--mode", "atoms"]])
    @pytest.mark.parametrize("data, message", [
        ({"reduced": {"dt": -1.0}}, "reduced.dt: "),
        ({"solver": {"scheme": "rk4"}}, "solver.scheme"),
        ({"solver": {"t_end": float("inf")}}, "solver.t_end: "),  # would step forever
        # was dropped silently, leaving M0 = 0.9
        ({"initial": {"preset": "atoms", "atoms": [[1.0, float("nan")], [2.0, 0.9]]}}, "initial: atom locations"),
        # was a NonConvergence traceback from the kernel quadrature
        ({"initial": {"preset": "atoms", "atoms": [[float("inf"), 0.5], [1.0, 0.5]]}}, "initial: atom locations"),
        # was a ValueError traceback over an empty output directory
        ({"initial": {"preset": "planck_mu", "mu": float("nan")}}, "initial: chemical potential"),
        # was a KeyError traceback
        ({"initial": {"preset": "atoms"}}, "initial: preset 'atoms' needs the field 'atoms'"),
        # wrongly typed values: each was a TypeError or ValueError traceback
        ({"truncation": {"theta": "x"}}, "truncation: could not convert"),
        ({"physical": {"beta": None}}, "physical: float() argument"),
        ({"initial": {"preset": "planck_mu", "mu": "x"}}, "initial: "),
        ({"initial": {"preset": "atoms", "atoms": 5}}, "initial: "),
        # each was a traceback over an empty output directory or, for limit_tol,
        # after trajectory.csv; simulate-full rejects the atoms first
        pytest.param(BAD_TABLE, {
            "simulate-full": "initial: the full equation needs a density",
            "simulate-reduced": "reduced.rate_table: rate matrix must be exactly antisymmetric",
        }, id="rate_table-not-antisymmetric"),
        pytest.param(WRONG_SHAPE_TABLE, {
            "simulate-full": "initial: the full equation needs a density",
            "simulate-reduced": "reduced.rate_table: shape mismatch",
        }, id="rate_table-3x3-for-two-atoms"),
        pytest.param(STRING_LIMIT_TOL, "reduced.limit_tol: could not convert", id="limit_tol-string"),
        # the wide grid was an OverflowError traceback over an empty output
        # directory; the far atom's X_eta column was inf, failing moments_nonincreasing
        pytest.param(WIDE_GRID, "grid.max: exp moment overflows: eta * max support = 0.375 * 3000", id="wide-grid"),
        pytest.param(FAR_ATOM, "initial: exp moment overflows: eta * max support = 0.375 * 2000", id="far-atom"),
        # passed load_config with rho_star == rho1, and simulate-full exited 0 with D = 0
        pytest.param({"truncation": {"delta_star": 1e300}},
                     "truncation: the band-constant residual overflows at delta_star=1e+300", id="delta_star-1e300"),
        # a NoRoot traceback (exit 1)
        pytest.param({"truncation": {"delta_star": 1e-300}}, "truncation: residual not positive at rho=0",
                     id="delta_star-1e-300"),
    ])
    def test_invalid_config_exit_code(self, tmp_path, capsys, command, data, message):
        if isinstance(message, dict):
            message = message[command[0]]
        assert_invalid_config(tmp_path, capsys, command, data, message)

    # each was a ValidationError traceback over an empty output directory
    @pytest.mark.parametrize("command, data, message", [
        (["simulate-full"], TWO_ATOMS, "initial: the full equation needs a density"),
        (["simulate-reduced", "--mode", "atoms"], {}, "initial: atoms mode needs a purely atomic"),
        (["simulate-reduced", "--mode", "picard"], TWO_ATOMS, "initial: picard mode needs a density"),
    ], ids=["full-atoms", "atoms-density", "picard-atoms"])
    def test_initial_state_of_the_wrong_kind(self, tmp_path, capsys, command, data, message):
        assert_invalid_config(tmp_path, capsys, command, data, message)

    def test_preset_unknown_exit_code(self, tmp_path):
        rc = cli_main(["preset", "nope", "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("args", BAD_ARGUMENTS)
    def test_bad_argument_exit_code(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert cli_main([*args.split(), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and BAD_ARGUMENTS[args] in err
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        assert cli_main(["verify", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: comptonsim verify")

    def test_preset_runs(self, tmp_path):
        rc = cli_main(["preset", "example51", "--out", str(tmp_path / "p")])
        assert rc == 0
