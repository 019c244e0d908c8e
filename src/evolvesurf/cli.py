"""Experiment orchestration and file emission.

Subcommands:

* ``check``  -- coefficient scan, estimated constants, smallness conditions;
* ``solve``  -- direct time-stepping plus energy/decay/regularity reports,
                read from the march's own step frames;
* ``picard`` -- fixed-point solve, contraction history, two-solver agreement;
                the direct march of the agreement check hands its step
                operators L(t_k) to the Picard stages;
* ``verify`` -- the structural invariant suite ``checks.VERIFY`` (metric
                identities, operator reductions, decomposition sum, perturbation
                bound, anisotropic oracles, dilation identity);
* ``mms``    -- manufactured-solution refinement study.

Outputs land in the configured directory: report.txt (key = value lines),
conditions.csv, energy.csv, picard.csv, convergence.csv as applicable, and
snapshot_####.vtk legacy-ASCII structured-grid files embedding the grid via
the chart so a viewer shows the evolving surface.  Exit status is nonzero iff
a hard assertion failed.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checks as ck
from . import coefficients as co
from . import diagnostics as dg
from . import operator as op
from . import timestepper as ts
from .config import (
    config_chart,
    config_diffusion,
    config_grid,
    config_initial_datum,
    parse_config,
    scan_times_list,
)
from .errors import (
    AssumptionViolationError,
    ConfigError,
    DegenerateChartError,
    ParameterError,
    PicardDivergenceError,
    StepSolveError,
)

_RUN_ERRORS = (AssumptionViolationError, ConfigError, DegenerateChartError,
               ParameterError, PicardDivergenceError, StepSolveError)

SUBCOMMANDS = ("check", "solve", "picard", "verify", "mms")


@dataclass
class RunReport:
    subcommand: str
    condition_report: object = None
    energy: object = None
    decay: dict = None
    regularity: dict = None
    picard_history: object = None
    agreement: float = None
    verify_checks: list = field(default_factory=list)
    convergence_tables: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    manifest: list = field(default_factory=list)


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


class _Timer:
    def __init__(self, report, name):
        self.report = report
        self.name = name

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.report.timings[self.name] = time.perf_counter() - self.t0
        return False


# ---------------------------------------------------------------------------
# verify suite


def run_verify(cfg):
    report = RunReport("verify")
    rng = np.random.default_rng(cfg.seed)
    for group, checks in ck.VERIFY:
        with _Timer(report, group):
            report.verify_checks += checks(cfg, rng)
    for c in report.verify_checks:
        if not c["passed"]:
            report.failures.append(f"verify check failed: {c['name']} = {c['value']:.3e}")
    return report


# ---------------------------------------------------------------------------
# solve / picard / check / mms


def run_check(cfg):
    report = RunReport("check")
    chart = config_chart(cfg)
    kappa = config_diffusion(cfg)
    grid = config_grid(cfg)
    with _Timer(report, "smallness"):
        report.condition_report = co.smallness_report(
            chart, kappa, grid, scan_times_list(cfg),
            margin=cfg.margin, probes=cfg.probes, seed=cfg.seed)
    return report


def _solve_common(cfg):
    chart = config_chart(cfg)
    kappa = config_diffusion(cfg)
    grid = config_grid(cfg)
    v0 = config_initial_datum(cfg, grid)
    return chart, kappa, grid, v0


def run_solve(cfg):
    report = RunReport("solve")
    chart, kappa, grid, v0 = _solve_common(cfg)
    with _Timer(report, "march"):
        traj, report.energy, report.decay, report.regularity = dg.solve_reported(
            chart, kappa, grid, v0, cfg.horizon, cfg.dt, theta=cfg.theta)
    return report, traj


def run_picard(cfg):
    report = RunReport("picard")
    chart, kappa, grid, v0 = _solve_common(cfg)
    with _Timer(report, "smallness"):
        rep = co.smallness_report(chart, kappa, grid, scan_times_list(cfg),
                                  margin=cfg.margin, probes=cfg.probes, seed=cfg.seed)
        report.condition_report = rep
    with _Timer(report, "direct"):
        # the march the agreement is measured against; its step frames give
        # the L(t_k) the Picard stages read
        operators = []
        direct = ts.solve_direct(chart, kappa, grid, v0, cfg.horizon, cfg.dt, theta=cfg.theta,
                                 observers=(lambda k, frame, traj: operators.append(frame.L),))
    with _Timer(report, "picard"):
        traj, hist = ts.solve_picard(chart, kappa, grid, rep.lambda1, rep.lambda2,
                                     v0, cfg.horizon, cfg.dt, tol=cfg.tol,
                                     max_iter=cfg.max_iter, theta=cfg.theta,
                                     condition_report=rep, operators=operators)
        report.picard_history = hist
        del operators   # the largest arrays of the run; the energy report needs none
    with _Timer(report, "agreement"):
        scale = float(np.max(np.abs(direct.fields)))
        report.agreement = float(np.max(np.abs(traj.fields - direct.fields)) / scale)
    with _Timer(report, "energy"):
        report.energy = dg.energy_report(traj, chart, kappa, grid)
    if not hist.converged:
        report.failures.append(f"picard did not converge in {cfg.max_iter} iterations")
    if report.agreement > 10.0 * cfg.tol:
        report.failures.append(
            f"two-solver agreement {report.agreement:.3e} exceeds 10*tol")
    return report, traj


def _sine_product_solution(domain):
    """e^{-t} sin(pi s1) sin(pi s2), s the rectangle's unit coordinates.

    Closed-form partials, so the ``mms`` run imports no sympy.  Each sine and
    cosine is a function of one coordinate, so on the open meshes of
    ``mms_convergence`` and the forcing it is evaluated per axis.
    """
    a, b, c, d = domain
    k1 = math.pi / (b - a)
    k2 = math.pi / (d - c)

    def phases(x1, x2):
        return np.pi * ((x1 - a) / (b - a)), np.pi * ((x2 - c) / (d - c))

    def u(x1, x2, t):
        p1, p2 = phases(x1, x2)
        return np.exp(-t) * np.sin(p1) * np.sin(p2)

    def u_1(x1, x2, t):
        p1, p2 = phases(x1, x2)
        return k1 * np.exp(-t) * np.cos(p1) * np.sin(p2)

    def u_2(x1, x2, t):
        p1, p2 = phases(x1, x2)
        return k2 * np.exp(-t) * np.sin(p1) * np.cos(p2)

    def u_12(x1, x2, t):
        p1, p2 = phases(x1, x2)
        return k1 * k2 * np.exp(-t) * np.cos(p1) * np.cos(p2)

    return dg.ManufacturedSolution(
        u=u, u_t=lambda x1, x2, t: -u(x1, x2, t), u_1=u_1, u_2=u_2,
        u_11=lambda x1, x2, t: -k1 * k1 * u(x1, x2, t), u_12=u_12,
        u_22=lambda x1, x2, t: -k2 * k2 * u(x1, x2, t))


def run_mms(cfg):
    report = RunReport("mms")
    chart = config_chart(cfg)
    kappa = config_diffusion(cfg)
    exact = _sine_product_solution(chart.domain)
    n_fine = cfg.n1
    n_mid = (n_fine + 1) // 2 - 1
    n_coarse = (n_mid + 1) // 2 - 1
    if n_coarse < 3:
        raise ConfigError("n1 must be at least 15 for the three-level refinement study",
                          key="n1")
    if cfg.n2 != n_fine:
        raise ConfigError(f"mms refines square grids: n2 = {cfg.n2} must equal n1 = {n_fine}",
                          key="n2")
    levels = [(n_coarse, 4.0 * cfg.dt), (n_mid, 2.0 * cfg.dt), (n_fine, cfg.dt)]
    with _Timer(report, "mms"):
        table = dg.mms_convergence(chart, kappa, exact, levels,
                                   T=min(cfg.horizon, 0.1), theta=cfg.theta)
    report.convergence_tables.append(table)
    if not table.monotone:
        report.failures.append("mms errors are not monotone under refinement")
    return report


def run_pipeline(cfg, subcommand):
    """Execute one subcommand; returns (RunReport, trajectory-or-None)."""
    if subcommand == "check":
        return run_check(cfg), None
    if subcommand == "solve":
        return run_solve(cfg)
    if subcommand == "picard":
        return run_picard(cfg)
    if subcommand == "verify":
        return run_verify(cfg), None
    if subcommand == "mms":
        return run_mms(cfg), None
    raise ConfigError(f"unknown subcommand '{subcommand}'")


# ---------------------------------------------------------------------------
# output files


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _vtk_reprs(a):
    """``repr`` of each element of ``a`` in VTK point order (first index fastest).

    For floats this is the text ``_fmt`` gives.  Float64 values are formatted
    once per distinct bit pattern: chart coordinates repeat along grid lines.
    """
    flat = np.asarray(a).T.ravel()
    if flat.dtype != np.float64:
        return list(map(repr, flat.tolist()))
    bits, inverse = np.unique(flat.view(np.uint64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return text[inverse].tolist()


def _write_vtk_snapshot(path, chart, grid, values, t):
    """Legacy-ASCII structured grid with the solution as point data."""
    X1, X2 = grid.full_mesh(sparse=True)
    pts = chart.evals["x"](X1, X2, t)
    full = grid.pad_dirichlet(values)
    n1p, n2p = full.shape
    lines = [
        "# vtk DataFile Version 3.0",
        f"evolving surface snapshot t={_fmt(float(t))}",
        "ASCII",
        "DATASET STRUCTURED_GRID",
        f"DIMENSIONS {n1p} {n2p} 1",
        f"POINTS {n1p * n2p} double",
        "\n".join(map(" ".join, zip(*(_vtk_reprs(c) for c in pts[:3])))),
        f"POINT_DATA {n1p * n2p}",
        "SCALARS u double 1",
        "LOOKUP_TABLE default",
        "\n".join(_vtk_reprs(full)),
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def _dump_matrix(path, matrix, grid, offsets):
    """Write the in-grid entries of a stencil matrix as "row col value" lines, in CSR order."""
    rows, cols, vals = op.stencil_entries(matrix, grid, offsets)
    Path(path).write_text("".join(
        f"{r} {c} {v!r}\n" for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist())))


def write_outputs(report, trajectory, directory, cfg=None):
    """Emit report.txt plus per-subcommand CSVs and snapshots; returns manifest."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    manifest = []

    kv = [("subcommand", report.subcommand)]
    if report.condition_report is not None:
        kv += report.condition_report.as_keyvalues()
    if report.decay is not None:
        kv += [("decay_sup_bound", report.decay["sup_bound"]),
               ("decay_monotone", report.decay["monotone"])]
    if report.regularity is not None:
        kv += [("regularity_quotient", report.regularity["quotient"])]
    if report.energy is not None:
        kv += [("energy_max_rel_residual", report.energy.max_rel_residual())]
    if report.picard_history is not None:
        h = report.picard_history
        kv += [("picard_iterations", h.iterations),
               ("picard_converged", h.converged),
               ("picard_last_diff", h.diff_norms[-1] if h.diff_norms else math.nan)]
    if report.agreement is not None:
        kv += [("two_solver_agreement", report.agreement)]
    for table in report.convergence_tables:
        kv += [("mms_order_space", table.order_space),
               ("mms_order_time", table.order_time),
               ("mms_monotone", table.monotone)]
    for c in report.verify_checks:
        kv += [(f"check_{c['name']}", c["passed"])]
    kv += [(f"time_{k}", v) for k, v in report.timings.items()]
    kv += [("failures", len(report.failures))]

    rp = out / "report.txt"
    rp.write_text("".join(f"{k} = {_fmt(v)}\n" for k, v in kv))
    manifest.append(str(rp))

    if report.condition_report is not None:
        path = out / "conditions.csv"
        keys, values = zip(*report.condition_report.as_keyvalues())
        _write_csv(path, keys, [[_fmt(v) for v in values]])
        manifest.append(str(path))

    if report.energy is not None:
        path = out / "energy.csv"
        e = report.energy
        rows = [[_fmt(float(e.times[k])), _fmt(float(e.mass[k])),
                 _fmt(float(e.dissipation[k])), _fmt(float(e.residual_abs[k])),
                 _fmt(float(e.residual_rel[k]))] for k in range(len(e.times))]
        _write_csv(path, ["time", "mass", "dissipation", "residual_abs", "residual_rel"], rows)
        manifest.append(str(path))

    if report.picard_history is not None:
        path = out / "picard.csv"
        h = report.picard_history
        rows = [[str(m + 1), _fmt(h.z_norms[m]), _fmt(h.diff_norms[m]),
                 _fmt(h.ratios[m - 1]) if m >= 1 else ""]
                for m in range(len(h.diff_norms))]
        _write_csv(path, ["iteration", "z_norm", "diff_norm", "ratio"], rows)
        manifest.append(str(path))

    if report.convergence_tables:
        path = out / "convergence.csv"
        rows = []
        for table in report.convergence_tables:
            for row, (o_s, o_t) in zip(table.rows, table.incremental_orders()):
                rows.append([_fmt(row["h"]), _fmt(row["dt"]), _fmt(row["err_max"]),
                             _fmt(row["err_l2"]),
                             "" if math.isnan(o_s) else _fmt(o_s),
                             "" if math.isnan(o_t) else _fmt(o_t)])
        _write_csv(path, ["h", "dt", "err_max", "err_l2", "order_space", "order_time"], rows)
        manifest.append(str(path))

    if trajectory is not None and cfg is not None:
        chart = config_chart(cfg)
        for k in range(0, trajectory.nsteps + 1, cfg.snapshot_stride):
            path = out / f"snapshot_{k:04d}.vtk"
            _write_vtk_snapshot(path, chart, trajectory.grid,
                                trajectory.fields[k], float(trajectory.times[k]))
            manifest.append(str(path))

    if cfg is not None and cfg.dump_matrices:
        grid = config_grid(cfg)
        chart = config_chart(cfg)
        kappa = config_diffusion(cfg)
        rep = report.condition_report
        if rep is None:
            lam1, lam2 = co.lambda_select(chart, kappa, grid, scan_times_list(cfg),
                                          margin=cfg.margin)
        else:
            lam1, lam2 = rep.lambda1, rep.lambda2
        for name, mat, offsets in (("A", op.assemble_A(grid, lam1, lam2), op.A_OFFSETS),
                                   ("L0", op.assemble_L(chart, kappa, grid, 0.0), op.L_OFFSETS)):
            path = out / f"matrix_{name}.coo"
            _dump_matrix(path, mat, grid, offsets)
            manifest.append(str(path))

    report.manifest = manifest
    return manifest


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="evolve-surf",
        description="advection-diffusion solver on an evolving surface patch")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the run configuration")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="probe seed override")
    parser.add_argument("--dump-matrices", action="store_true",
                        help="write assembled operators in coordinate text format")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(Path(args.config).read_text())
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    if args.dump_matrices:
        cfg.dump_matrices = True

    try:
        report, traj = run_pipeline(cfg, args.subcommand)
        manifest = write_outputs(report, traj, cfg.out_dir, cfg=cfg)
    except _RUN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for c in report.verify_checks:
        status = "pass" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}: {c['value']:.6g} (tol {c['tol']:.3g})")
    for msg in report.failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    print(f"wrote {len(manifest)} files to {cfg.out_dir}")
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
