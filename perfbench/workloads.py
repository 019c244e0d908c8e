"""Workload definitions, output gates and the per-layer map of the benchmark.

Each workload is one CLI subcommand run on one configuration generated from a
seed.  The seed draws the chart parameters (epsilon, omega or the translation
speed, in narrow bands), the diffusivity amplitude, the initial-datum modes
and the probe seed.  Grid sizes and step counts are fixed, so the work done is
comparable across seeds; the program only ever sees the generated config text.
"""

from __future__ import annotations

import random

# Why each workload exists, and which layer metrics should move its wall_s.
WHY = {
    "solve-moving": "solve, moving chart, 127^2, 20 steps: L(t) is assembled and LU-factorized "
                    "every step, so operator.factorize/assemble_L move wall_s here "
                    "(ROADMAP items 1, 3)",
    "solve-static": "solve, rigid chart, 150x100 grid on (0,1.5)x(0,1), 200 steps, 21 VTK files: "
                    "one LU; output, diagnostics and metric_fields move wall_s; implicit-solve "
                    "changes predicted flat",
    "picard": "picard, 63^2, 50 steps: smallness report (estimate_C_A LU solves), Picard "
              "marches and stored B(t_k) move wall_s and peak_rss_mib (ROADMAP item 5)",
    "mms": "mms, levels 15/31/63 with 10/20/40 steps: the only sympy user; "
           "manufactured_forcing, forcing_eval and per-step factorize move wall_s (item 3e)",
}

WORKLOADS = tuple(WHY)

SUBCOMMAND = {
    "solve-moving": "solve",
    "solve-static": "solve",
    "picard": "picard",
    "mms": "mms",
}


def _draw_oscillation(rng):
    return {
        "epsilon": rng.uniform(0.045, 0.055),
        "omega": rng.uniform(0.9, 1.1),
    }


def _draw_modes(rng):
    # mirror images on the x1 <-> x2 symmetric square problems: same work and
    # the same discretization error, different inputs
    k1 = rng.choice((1, 2))
    return {"v0_k1": k1, "v0_k2": 3 - k1}


def draw_params(workload, seed):
    """Seeded parameters of one workload; the same seed gives the same values."""
    if workload not in WHY:
        raise ValueError(f"unknown workload '{workload}'")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "solve-static":
        # the rectangle and the diffusivity have no mirror symmetry, and the
        # energy residual depends on the mode, so the modes stay fixed here
        params = {"c": rng.uniform(0.9, 1.1), "amp": rng.uniform(0.195, 0.205),
                  "v0_k1": 1, "v0_k2": 2}
    else:
        params = _draw_oscillation(rng)
    if workload in ("solve-moving", "picard"):
        params.update(_draw_modes(rng))
    params["probe_seed"] = rng.randrange(1, 2 ** 31)
    return params


def config_text(workload, seed):
    """The configuration file the program receives for one workload and seed."""
    p = draw_params(workload, seed)
    solver = [f"seed = {p['probe_seed']}"]
    if "v0_k1" in p:
        solver += [f"v0_k1 = {p['v0_k1']}", f"v0_k2 = {p['v0_k2']}"]
    if workload == "solve-static":
        surface = ["preset = translating_patch", "T = 0.2", "x1_max = 1.5", f"c = {p['c']!r}"]
        diffusion = ["preset = sinusoidal", "base = 1.0", f"amp = {p['amp']!r}"]
        grid = ["n1 = 150", "n2 = 100"]
        time = ["dt = 0.001"]
        stride = 10
    else:
        horizon = {"solve-moving": "0.02", "picard": "0.05", "mms": "0.1"}[workload]
        surface = ["preset = graph_oscillation", f"T = {horizon}",
                   f"epsilon = {p['epsilon']!r}", f"omega = {p['omega']!r}"]
        diffusion = ["preset = constant", "value = 1.0"]
        n = 127 if workload == "solve-moving" else 63
        grid = [f"n1 = {n}", f"n2 = {n}"]
        time = ["dt = 0.0025" if workload == "mms" else "dt = 0.001"]
        # one snapshot (t = 0) for the moving solve; picard and mms write none
        stride = 1000
    sections = [("surface", surface), ("diffusion", diffusion), ("grid", grid),
                ("time", time + ["theta = 0.5"]), ("solver", solver),
                ("output", [f"snapshot_stride = {stride}"])]
    return "\n".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections)


# ---------------------------------------------------------------------------
# output gates (the acceptance-suite tolerances)

ENERGY_TOL = 5e-3
PICARD_RATIO_MAX = 0.55
PICARD_AGREEMENT_TOL = 1e-6
MMS_ORDER_RANGE = (1.8, 2.2)


def gate(subcommand, report):
    """Discretization error the run reports, and the list of gate failures."""
    failures = [f"report failure: {msg}" for msg in report.failures]
    if subcommand in ("solve", "picard"):
        err = report.energy.max_rel_residual()
        if not err <= ENERGY_TOL:
            failures.append(f"energy residual {err:.3e} > {ENERGY_TOL:g}")
    if subcommand == "picard":
        hist = report.picard_history
        if not hist.converged:
            failures.append("picard did not converge")
        if hist.ratios and not max(hist.ratios) <= PICARD_RATIO_MAX:
            failures.append(f"picard ratio {max(hist.ratios):.3f} > {PICARD_RATIO_MAX}")
        if not report.agreement <= PICARD_AGREEMENT_TOL:
            failures.append(f"two-solver agreement {report.agreement:.3e} > "
                            f"{PICARD_AGREEMENT_TOL:g}")
    if subcommand == "mms":
        table = report.convergence_tables[-1]
        err = table.rows[-1]["err_l2"]
        lo, hi = MMS_ORDER_RANGE
        for label, order in (("space", table.order_space), ("time", table.order_time)):
            if not lo <= order <= hi:
                failures.append(f"mms {label} order {order:.3f} outside [{lo}, {hi}]")
        if not table.monotone:
            failures.append("mms errors not monotone")
    return err, failures


# ---------------------------------------------------------------------------
# per-layer metrics and the end-to-end metric each should move

# (name, unit, better, what it should move and where)
LAYERS = (
    ("operator.factorize.calls", "count", "lower", "wall_s on solve-moving and mms; flat on solve-static"),
    ("operator.factorize.s", "s", "lower", "wall_s on solve-moving and mms; flat on solve-static"),
    ("operator.factorize.nnz", "count", "lower", "wall_s on solve-moving and mms"),
    ("operator.assemble_L.calls", "count", "lower", "wall_s on solve-moving and mms"),
    ("operator.assemble_L.s", "s", "lower", "wall_s on solve-moving and mms"),
    ("operator.lu_solve.calls", "count", "lower", "wall_s on picard and solve-static"),
    ("operator.lu_solve.s", "s", "lower", "wall_s on picard and solve-static"),
    ("operator.assemble_B_parts.calls", "count", "lower", "wall_s on picard; zero on solve-*"),
    ("operator.assemble_B_parts.s", "s", "lower", "wall_s on picard; zero on solve-*"),
    ("coefficients.smallness_report.s", "s", "lower", "wall_s on picard; zero on solve-*"),
    ("coefficients.estimate_C_A.s", "s", "lower", "wall_s on picard; zero on solve-*"),
    ("coefficients.estimate_C_sharp.s", "s", "lower", "wall_s on picard; zero on solve-*"),
    ("coefficients.m_quantities.s", "s", "lower", "wall_s on picard; zero on solve-*"),
    ("timestepper.solve_picard.s", "s", "lower", "wall_s on picard; zero on solve-*"),
    ("timestepper.solve_picard.rss_mib", "MiB", "lower", "peak_rss_mib on picard"),
    ("timestepper.z_norm.s", "s", "lower", "wall_s on picard; zero on solve-*"),
    ("timestepper.picard_iterations", "count", "lower", "wall_s on picard; zero on solve-*"),
    ("timestepper.solve_direct.s", "s", "lower", "wall_s: self time the other spans miss"),
    ("diagnostics.energy_report.s", "s", "lower", "wall_s on solve-static"),
    ("diagnostics.decay_report.s", "s", "lower", "wall_s on solve-static"),
    ("diagnostics.regularity_report.s", "s", "lower", "wall_s on solve-static"),
    ("diagnostics.manufactured_forcing.s", "s", "lower", "wall_s on mms; zero elsewhere"),
    ("diagnostics.forcing_eval.calls", "count", "lower", "wall_s on mms; zero elsewhere"),
    ("diagnostics.forcing_eval.s", "s", "lower", "wall_s on mms; zero elsewhere"),
    ("geometry.metric_fields.calls", "count", "lower", "wall_s on solve-static"),
    ("geometry.metric_fields.s", "s", "lower", "wall_s on solve-static"),
    ("cli.write_outputs.s", "s", "lower", "wall_s on solve-static; small on picard and mms"),
    ("cli.output_bytes", "B", "lower", "wall_s on solve-static; small on picard and mms"),
    ("cli.output_files", "count", "lower", "wall_s on solve-static; small on picard and mms"),
    ("config.parse_config.s", "s", "lower", "setup_s"),
    ("untraced_s", "s", "lower", "wall_s: root self time the other spans miss"),
    ("traced_wall_s", "s", "lower", "wall_s of the traced run, scaled alike; minus wall_s is the tracing overhead"),
    ("check.repro_mismatches", "count", "lower", "runs whose outputs differ from the first run's"),
    ("check.counter_mismatches", "count", "lower", "deterministic counters that differ between runs"),
    ("check.layer_map_violations", "count", "lower", "layer metrics off the zero/non-zero map below"),
)

LAYER_NAMES = tuple(name for name, *_ in LAYERS)

# Counters that must repeat exactly between runs of one seed.
COUNTERS = tuple(n for n in LAYER_NAMES
                 if n.endswith((".calls", ".nnz"))
                 or n in ("timestepper.picard_iterations", "cli.output_bytes", "cli.output_files"))

_PICARD_ONLY = {
    "operator.assemble_B_parts.calls", "operator.assemble_B_parts.s",
    "coefficients.smallness_report.s", "coefficients.estimate_C_A.s",
    "coefficients.estimate_C_sharp.s", "coefficients.m_quantities.s",
    "timestepper.solve_picard.s", "timestepper.solve_picard.rss_mib",
    "timestepper.z_norm.s", "timestepper.picard_iterations",
}
_MMS_ONLY = {"diagnostics.manufactured_forcing.s", "diagnostics.forcing_eval.calls",
             "diagnostics.forcing_eval.s"}
_SOLVE_ONLY = {"diagnostics.decay_report.s", "diagnostics.regularity_report.s"}

# Layer metrics predicted to read exactly zero on each workload; every other
# layer metric (the check.* counts aside) is predicted to be non-zero.
ZERO = {
    "solve-moving": _PICARD_ONLY | _MMS_ONLY,
    "solve-static": _PICARD_ONLY | _MMS_ONLY,
    "picard": _MMS_ONLY | _SOLVE_ONLY,
    "mms": _PICARD_ONLY | _SOLVE_ONLY | {"diagnostics.energy_report.s"},
}


def layer_map_violations(workload, values):
    """Layer metrics that break the zero/non-zero prediction for a workload."""
    out = []
    for name in LAYER_NAMES:
        if name.startswith("check.") or name == "traced_wall_s":
            continue
        zero = name in ZERO[workload]
        if (values.get(name, 0) == 0) != zero:
            out.append(f"{name} = {values.get(name, 0)} (predicted {'zero' if zero else 'non-zero'})")
    return out
