"""Command-line interface.

Subcommands: kernel-table, region-dump, simulate-full, simulate-reduced,
verify, preset.  The THREADS environment variable caps numerical-library
parallelism.  Runs are deterministic for a fixed config and seed, at any
thread count.
Exit code is 0 exactly when every assertion of the invoked command passed
(the table commands have none), 1 when one failed, and 2 for a command line
argparse rejects (``--seed x``, say, or an unknown option), an invalid
config (a value of the wrong type, truncation values with no band constant,
a ``reduced.rate_table`` that is not finite or does not fit the atoms, an
initial state of the wrong kind for the command included: simulate-full
needs a density, picard mode a flat one, atoms mode a purely atomic state,
and a reduced state with kernel pairs past x + y = 2 ln(max float)), an
unknown preset, an argument of kernel-table or region-dump outside its
domain (``--tol 0``, say, or a ``--theta1`` not above ``--theta``), or a
negative ``--seed``.  An exit 2 prints one line on stderr and writes nothing.
``main`` returns the exit code, 0 after ``--help``.
"""

from __future__ import annotations

import argparse
import os
import sys


def _cap_threads() -> None:
    threads = os.environ.get("THREADS")
    if not threads:
        return
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(var, threads)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # one line on stderr, in place of argparse's usage line and error line
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="comptonsim",
        description="Simulators and diagnostics for photon kinetics under Compton scattering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kt = sub.add_parser("kernel-table", help="emit a kernel table as CSV (x, y, B, err)")
    kt.add_argument("--beta", type=float, default=1.0)
    kt.add_argument("--m", type=float, default=1.0)
    kt.add_argument("--tol", type=float, default=1e-10)
    kt.add_argument("--grid-min", type=float, default=0.1)
    kt.add_argument("--grid-max", type=float, default=10.0)
    kt.add_argument("--grid-points", type=int, default=20)
    kt.add_argument("--out", default="kernel_table.csv")

    rd = sub.add_parser("region-dump", help="emit the region boundary curves as CSV")
    rd.add_argument("--theta", type=float, default=0.5)
    rd.add_argument("--delta-star", type=float, default=1.0)
    rd.add_argument("--theta1", type=float, default=0.8)
    rd.add_argument("--grid-min", type=float, default=1e-3)
    rd.add_argument("--grid-max", type=float, default=10.0)
    rd.add_argument("--grid-points", type=int, default=200)
    rd.add_argument("--out", default="region.csv")

    sf = sub.add_parser("simulate-full", help="integrate the regularized full equation")
    sf.add_argument("--config", required=True)
    sf.add_argument("--out", required=True)

    sr = sub.add_parser("simulate-reduced", help="integrate the reduced quadratic equation")
    sr.add_argument("--config", required=True)
    sr.add_argument("--mode", choices=("picard", "atoms"), required=True)
    sr.add_argument("--out", required=True)

    ve = sub.add_parser("verify", help="run the condensed invariant suite")
    ve.add_argument("--seed", type=int, default=7)
    ve.add_argument("--out", default=None, help="keep run outputs in this directory")

    pr = sub.add_parser("preset", help="run a named experiment preset")
    pr.add_argument("name")
    pr.add_argument("--out", required=True)
    pr.add_argument("--seed", type=int, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    _cap_threads()
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:  # 0 after --help, 2 after a usage error
        return e.code
    if getattr(args, "seed", None) is not None and args.seed < 0:
        print(f"invalid argument --seed: must be >= 0; got {args.seed}", file=sys.stderr)
        return 2

    from .harness import (
        ParseError,
        UnknownPreset,
        ValidationError,
        load_config,
        run_full_experiment,
        run_preset,
        run_reduced_experiment,
        verify_suite,
        write_kernel_table,
        write_region_dump,
    )
    from .kernel import PhysicalParams
    from .truncation import TruncationParams

    if args.command in ("kernel-table", "region-dump"):
        # the parameters, the grid and the tolerance raise ValueError on a bad
        # argument, each before the table is computed and its file opened
        try:
            if args.command == "kernel-table":
                pp = PhysicalParams(beta=args.beta, m=args.m)
                write_kernel_table(pp, args.grid_min, args.grid_max, args.grid_points, args.tol, args.out)
            else:
                tp = TruncationParams.solve(args.theta, args.delta_star, args.theta1)
                write_region_dump(tp, args.grid_min, args.grid_max, args.grid_points, args.out)
        except ValueError as e:
            print(f"invalid arguments to {args.command}: {e}", file=sys.stderr)
            return 2
        print(f"wrote {args.out}")
        return 0

    if args.command == "verify":
        results = verify_suite(seed=args.seed, out_dir=args.out)
        _print_assertions(results)
        failed = [r for r in results if not r["passed"]]
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
        return 0 if not failed else 1

    if args.command == "preset":
        try:
            manifest = run_preset(args.name, args.out, args.seed)
        except UnknownPreset as e:
            print(e.args[0], file=sys.stderr)
            return 2
    else:
        # the runs check the initial state's kind before they write anything
        try:
            cfg = load_config(args.config, equation="full" if args.command == "simulate-full" else "reduced")
            if args.command == "simulate-full":
                manifest, _ = run_full_experiment(cfg, args.out)
            else:
                manifest, _ = run_reduced_experiment(cfg, args.out, mode=args.mode)
        except (ParseError, ValidationError) as e:
            print(f"invalid config {args.config}: {e}", file=sys.stderr)
            return 2
    _print_assertions(manifest.assertions)
    return 0 if manifest.all_passed else 1


def _print_assertions(assertions: list[dict]) -> None:
    for a in assertions:
        status = "PASS" if a["passed"] else "FAIL"
        detail = f"  ({a['detail']})" if a.get("detail") else ""
        print(f"[{status}] {a['name']}{detail}")


if __name__ == "__main__":
    sys.exit(main())
