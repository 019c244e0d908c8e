import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import evolvesurf
from evolvesurf import ConfigError, make_chart, make_diffusion, make_grid, user_chart
from evolvesurf import checks, cli
from evolvesurf import operator as op
from evolvesurf.cli import _dump_matrix, _write_vtk_snapshot, main, run_pipeline, write_outputs
from evolvesurf.config import (
    RunConfig,
    config_chart,
    config_diffusion,
    config_initial_datum,
    config_grid,
    parse_config,
    serialize_config,
)
from evolvesurf.diagnostics import SOLUTION_PARTIALS, manufactured_solution
from evolvesurf.operator import assemble_A, assemble_L

from test_operator import assembled_by_coo

MINIMAL = """
[surface]
preset = flat_static
T = 0.1

[grid]
n1 = 32
n2 = 32

[time]
dt = 1e-3
"""

# the example configuration of the README
README_EXAMPLE = """
[surface]
preset = graph_oscillation   # flat_static | isotropic_scaling | graph_oscillation | translating_patch
T = 0.05
epsilon = 0.05
omega = 1.0

[diffusion]
preset = constant            # constant | sinusoidal
value = 1.0

[grid]
n1 = 32
n2 = 32

[time]
dt = 1e-3
theta = 0.5                  # theta-scheme weight in [0.5, 1]

[solver]
tol = 1e-8
probes = 16
margin = 0.05
seed = 42

[output]
directory = out
snapshot_stride = 10
"""

VERIFY_CHECK_NAMES = [
    "metric_identity_flat_static", "metric_positive_flat_static",
    "metric_identity_isotropic_scaling", "metric_positive_isotropic_scaling",
    "metric_identity_graph_oscillation", "metric_positive_graph_oscillation",
    "metric_identity_translating_patch", "metric_positive_translating_patch",
    "reduction_flat", "reduction_isotropic",
    "decomposition_sum", "weighted_selfadjointness", "perturbation_bound_violations",
    "order2_fundsol", "order2_scaled_heat",
    "dilation_identity_flat_static", "dilation_identity_isotropic_scaling",
    "dilation_identity_graph_oscillation", "dilation_identity_translating_patch",
]


def _line_of(text, entry):
    return text.splitlines().index(entry) + 1


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.surface_preset == "flat_static"
        assert cfg.horizon == 0.1
        assert cfg.n1 == cfg.n2 == 32
        assert cfg.dt == 1e-3
        assert cfg.theta == 0.5
        assert cfg.tol == 1e-8
        assert cfg.margin == 0.05
        assert cfg.probes == 16
        assert cfg.seed == 42
        assert cfg.domain == (0.0, 1.0, 0.0, 1.0)

    def test_unknown_surface_preset(self):
        text = MINIMAL.replace("flat_static", "banana")
        with pytest.raises(ConfigError, match="unknown surface preset"):
            parse_config(text)

    def test_theta_range_error_names_key_and_line(self):
        text = MINIMAL + "theta = 0.3\n"
        with pytest.raises(ConfigError, match="theta must lie in \\[0.5, 1\\]") as exc:
            parse_config(text)
        assert exc.value.key == "theta"
        assert exc.value.line is not None

    def test_missing_required_key(self):
        text = MINIMAL.replace("dt = 1e-3", "")
        with pytest.raises(ConfigError, match="missing required key") as exc:
            parse_config(text)
        assert exc.value.key == "dt"

    def test_parameter_the_preset_does_not_read_names_key_and_line(self):
        text = MINIMAL.replace("T = 0.1", "T = 0.1\ngamma = 3\nepsilon = 0.2")
        with pytest.raises(ConfigError, match="preset 'flat_static' does not read it") as exc:
            parse_config(text)
        assert (exc.value.key, exc.value.line) == ("gamma", text.splitlines().index("gamma = 3") + 1)
        text = MINIMAL + "\n[diffusion]\npreset = constant\namp = 0.4\n"
        with pytest.raises(ConfigError, match="preset 'constant' does not read it") as exc:
            parse_config(text)
        assert (exc.value.key, exc.value.line) == ("amp", text.splitlines().index("amp = 0.4") + 1)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL + "typo = 1\n")
        # the subcommand picks the solver; [solver] has no mode key
        with pytest.raises(ConfigError, match="unknown key") as exc:
            parse_config(MINIMAL + "\n[solver]\nmode = picard\n")
        assert exc.value.key == "mode"

    def test_snapshot_stride_zero_rejected(self):
        text = MINIMAL + "\n[output]\nsnapshot_stride = 0\n"
        with pytest.raises(ConfigError, match="snapshot_stride"):
            parse_config(text)

    def test_second_mode_number_error_names_its_own_key_and_line(self):
        text = MINIMAL + "\n[solver]\nv0_k1 = 2\nv0_k2 = 0\n"
        with pytest.raises(ConfigError, match="mode numbers must be positive") as exc:
            parse_config(text)
        assert exc.value.key == "v0_k2"
        assert exc.value.line == _line_of(text, "v0_k2 = 0")

    def test_first_mode_number_error_gives_its_line(self):
        text = MINIMAL + "\n[solver]\nv0_k1 = 0\n"
        with pytest.raises(ConfigError, match="mode numbers must be positive") as exc:
            parse_config(text)
        assert exc.value.key == "v0_k1"
        assert exc.value.line == _line_of(text, "v0_k1 = 0")

    def test_degenerate_rectangle_names_the_bad_axis(self):
        text = MINIMAL.replace("T = 0.1", "T = 0.1\nx2_min = 0.5\nx2_max = 0.25")
        with pytest.raises(ConfigError, match="degenerate") as exc:
            parse_config(text)
        assert exc.value.key == "x2_max"
        assert exc.value.line == _line_of(text, "x2_max = 0.25")
        # an unset max bound has no line to give
        text = MINIMAL.replace("T = 0.1", "T = 0.1\nx1_min = 2.0")
        with pytest.raises(ConfigError, match="degenerate") as exc:
            parse_config(text)
        assert exc.value.key == "x1_max"
        assert exc.value.line is None

    def test_round_trip_exact(self):
        cfg = parse_config(MINIMAL)
        assert parse_config(serialize_config(cfg)) == cfg
        rich = RunConfig(
            surface_preset="graph_oscillation", horizon=0.37, n1=12, n2=14,
            dt=2.5e-3, domain=(0.0, 2.0, -1.0, 1.0),
            surface_params={"epsilon": 0.07, "omega": 1.3},
            diffusion_preset="sinusoidal",
            diffusion_params={"base": 1.1, "amp": 0.25},
            h_fd=1e-6, theta=0.75, tol=1e-9, max_iter=12,
            probes=7, margin=0.01, seed=5, scan_times=6, v0_k1=2, v0_k2=3,
            out_dir="elsewhere", snapshot_stride=3, dump_matrices=True,
        )
        assert parse_config(serialize_config(rich)) == rich

    def test_initial_datum_vanishes_on_boundary_modes(self):
        cfg = parse_config(MINIMAL)
        grid = config_grid(cfg)
        v0 = config_initial_datum(cfg, grid)
        X1, X2 = grid.interior_mesh()
        ref = np.sin(np.pi * X1) * np.sin(np.pi * X2)
        np.testing.assert_allclose(v0, ref.ravel())


class TestPipeline:
    def test_check_flat(self):
        # margin 0 keeps the comparison weights on the exact coefficient
        # floor, so the perturbation vanishes identically on the flat chart
        cfg = parse_config(MINIMAL)
        cfg.probes = 4
        cfg.margin = 0.0
        report, traj = run_pipeline(cfg, "check")
        assert traj is None
        rep = report.condition_report
        assert rep.condition_thm24 and rep.condition_thm25 and rep.condition_thm26

    def test_picard_flat_exact_fixed_point(self):
        cfg = parse_config(MINIMAL)
        cfg.probes = 4
        cfg.margin = 0.0
        cfg.n1 = cfg.n2 = 12
        cfg.horizon = 0.02
        report, traj = run_pipeline(cfg, "picard")
        assert report.picard_history.converged
        assert report.picard_history.iterations == 1
        assert report.agreement <= 1e-14  # exact fixed point, roundoff only
        assert not report.failures

    def test_solve_reports(self):
        cfg = parse_config(MINIMAL)
        cfg.n1 = cfg.n2 = 12
        cfg.horizon = 0.02
        report, traj = run_pipeline(cfg, "solve")
        assert traj.nsteps == 20
        assert report.energy.max_rel_residual() < 1e-2
        assert report.decay["monotone"]


MOVING = """
[surface]
preset = graph_oscillation
T = 0.01
epsilon = 0.05

[grid]
n1 = 16
n2 = 16

[time]
dt = 1e-3

[solver]
probes = 4
"""


class TestOneEvaluationPerStepTime:
    """Each step time is evaluated once for the march, its reports and Picard."""

    def test_moving_solve(self, count_calls):
        from evolvesurf import geometry, operator
        assembled = count_calls(operator, "assemble_L")
        metrics = count_calls(geometry, "metric_fields")
        report, traj = run_pipeline(parse_config(MOVING), "solve")
        assert traj.nsteps == 10 and report.regularity is not None
        assert len(assembled) == traj.nsteps + 1
        # the march's full-mesh metric and the energy ledger's cell-centre one
        assert len(metrics) <= 2 * (traj.nsteps + 1)

    def test_picard(self, count_calls):
        from evolvesurf import operator
        assembled = count_calls(operator, "assemble_L")
        report, traj = run_pipeline(parse_config(MOVING), "picard")
        assert report.picard_history.converged and not report.failures
        assert len(assembled) == traj.nsteps + 1


class TestOutputs:
    def _run(self, tmp_path, subcommand="solve", **overrides):
        cfg = parse_config(MINIMAL)
        cfg.n1 = cfg.n2 = 10
        cfg.horizon = 0.02
        cfg.probes = 4
        cfg.out_dir = str(tmp_path / "out")
        for k, v in overrides.items():
            setattr(cfg, k, v)
        report, traj = run_pipeline(cfg, subcommand)
        manifest = write_outputs(report, traj, cfg.out_dir, cfg=cfg)
        return cfg, report, manifest

    def test_manifest_paths_exist(self, tmp_path):
        _, _, manifest = self._run(tmp_path)
        assert manifest
        for p in manifest:
            assert Path(p).exists()

    def test_energy_csv_header(self, tmp_path):
        cfg, _, manifest = self._run(tmp_path)
        energy = Path(cfg.out_dir) / "energy.csv"
        header = energy.read_text().splitlines()[0]
        assert header == "time,mass,dissipation,residual_abs,residual_rel"

    def test_flat_snapshot_embeds_identity(self, tmp_path):
        cfg, _, _ = self._run(tmp_path, snapshot_stride=20)
        snap = (Path(cfg.out_dir) / "snapshot_0000.vtk").read_text().splitlines()
        assert snap[3] == "DATASET STRUCTURED_GRID"
        assert snap[4] == "DIMENSIONS 12 12 1"
        # second point is (h1, 0, 0) for the identity embedding
        assert snap[7].split() == [repr(1.0 / 11), "0.0", "0.0"]

    def test_isotropic_snapshot_points_scale(self, tmp_path):
        cfg, _, _ = self._run(
            tmp_path, surface_preset="isotropic_scaling",
            surface_params={"gamma": 1.0}, snapshot_stride=10)
        snaps = sorted(Path(cfg.out_dir).glob("snapshot_*.vtk"))
        assert len(snaps) == 3
        first = snaps[0].read_text().splitlines()[7].split()
        last = snaps[-1].read_text().splitlines()[7].split()
        t_last = 0.02
        assert float(last[0]) == pytest.approx(float(first[0]) * math.exp(t_last), rel=1e-12)

    def test_matrix_dump(self, tmp_path):
        cfg, _, manifest = self._run(tmp_path, dump_matrices=True)
        dumped = [p for p in manifest if p.endswith(".coo")]
        assert len(dumped) == 2
        line = Path(dumped[0]).read_text().splitlines()[0].split()
        assert len(line) == 3
        int(line[0]), int(line[1]), float(line[2])

    @pytest.mark.parametrize("subcommand", ["check", "picard"])
    def test_matrix_A_takes_the_report_weights(self, tmp_path, monkeypatch, subcommand):
        # the condition report already holds (lambda1, lambda2): no second scan
        def no_scan(*args, **kwargs):
            raise AssertionError("lambda_select called")

        monkeypatch.setattr(cli.co, "lambda_select", no_scan)
        cfg, report, _ = self._run(tmp_path, subcommand=subcommand, dump_matrices=True,
                                   diffusion_preset="sinusoidal")
        rep = report.condition_report
        grid = config_grid(cfg)
        # both dumps carry the text of the COO->CSR reference assembly
        refs = {"A": assembled_by_coo(assemble_A, grid, rep.lambda1, rep.lambda2),
                "L0": assembled_by_coo(assemble_L, config_chart(cfg), config_diffusion(cfg),
                                       grid, 0.0)}
        for name, mat in refs.items():
            assert (Path(cfg.out_dir) / f"matrix_{name}.coo").read_text() == _coo_per_point(mat)

    def test_deterministic_outputs_for_fixed_seed(self, tmp_path):
        cfg1, _, _ = self._run(tmp_path / "a", subcommand="check")
        cfg2, _, _ = self._run(tmp_path / "b", subcommand="check")
        b1 = (Path(cfg1.out_dir) / "conditions.csv").read_bytes()
        b2 = (Path(cfg2.out_dir) / "conditions.csv").read_bytes()
        assert b1 == b2


# Per-point reference writers: the loops the array-at-a-time writers replaced.


def _fmt_ref(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _vtk_per_point(chart, grid, values, t):
    X1, X2 = grid.full_mesh()
    pts = chart.evals["x"](X1, X2, t)
    full = grid.pad_dirichlet(values)
    n1p, n2p = X1.shape
    lines = [
        "# vtk DataFile Version 3.0",
        f"evolving surface snapshot t={_fmt_ref(float(t))}",
        "ASCII",
        "DATASET STRUCTURED_GRID",
        f"DIMENSIONS {n1p} {n2p} 1",
        f"POINTS {n1p * n2p} double",
    ]
    for j in range(n2p):
        for i in range(n1p):
            lines.append(f"{_fmt_ref(pts[0][i, j])} {_fmt_ref(pts[1][i, j])} "
                         f"{_fmt_ref(pts[2][i, j])}")
    lines += [f"POINT_DATA {n1p * n2p}", "SCALARS u double 1", "LOOKUP_TABLE default"]
    for j in range(n2p):
        for i in range(n1p):
            lines.append(_fmt_ref(full[i, j]))
    return "\n".join(lines) + "\n"


def _coo_per_point(matrix):
    m = matrix.tocoo()
    return "".join(f"{r} {c} {_fmt_ref(float(v))}\n" for r, c, v in zip(m.row, m.col, m.data))


PRESET_PARAMS = [
    ("flat_static", {}),
    ("isotropic_scaling", {"gamma": 1.0}),
    ("graph_oscillation", {"epsilon": 0.05, "omega": 1.0}),
    ("translating_patch", {"c": 1.5}),
]


class TestWriterBytes:
    # non-square grid on a non-unit rectangle
    GRID = make_grid((-0.5, 1.0, 0.25, 1.05), 13, 6)

    def _check_snapshot(self, tmp_path, chart, t):
        values = np.random.default_rng(7).standard_normal(self.GRID.ndof)
        values[:3] = (-0.0, 1e-300, -2.5e17)   # signed zero and exponent forms
        path = tmp_path / "snapshot.vtk"
        _write_vtk_snapshot(path, chart, self.GRID, values, t)
        text = path.read_text()
        assert text == _vtk_per_point(chart, self.GRID, values, t)
        # the zero Dirichlet ring is written around the interior values
        assert text.splitlines()[-1] == "0.0"

    @pytest.mark.parametrize("name,params", PRESET_PARAMS)
    @pytest.mark.parametrize("t", [0.0, 0.37])
    def test_snapshot_matches_per_point_writer(self, tmp_path, name, params, t):
        chart = make_chart(name, domain=self.GRID.domain, horizon=1.0, **params)
        self._check_snapshot(tmp_path, chart, t)

    def test_snapshot_with_integer_coordinates(self, tmp_path):
        def lattice(x1, x2, t):
            x1, x2 = np.broadcast_arrays(x1, x2)
            return np.stack([np.rint(8 * x1), np.rint(8 * x2), 0 * x1]).astype(int)

        self._check_snapshot(tmp_path, user_chart(lattice, self.GRID.domain, 1.0), 0.37)

    @pytest.mark.parametrize("n1,n2", [(13, 6), (5, 2), (4, 1), (1, 3)])
    @pytest.mark.parametrize("name,params", [PRESET_PARAMS[2], PRESET_PARAMS[3]])
    def test_matrix_dump_matches_per_point_writer(self, tmp_path, n1, n2, name, params):
        # the per-point writer of the COO reference lists every in-grid stencil
        # entry, the explicit (signed) zeros of the translating patch's cross
        # terms included; a grid with n2 <= 2 puts two stencil offsets on one diagonal
        grid = make_grid(self.GRID.domain, n1, n2)
        chart = make_chart(name, domain=grid.domain, horizon=1.0, **params)
        kappa = make_diffusion("sinusoidal", base=1.0, amp=0.2)
        for build, args, offsets in ((assemble_A, (grid, 0.8, 1.3), op.A_OFFSETS),
                                     (assemble_L, (chart, kappa, grid, 0.37), op.L_OFFSETS)):
            path = tmp_path / "matrix.coo"
            _dump_matrix(path, build(*args), grid, offsets)
            assert path.read_text() == _coo_per_point(assembled_by_coo(build, *args))


class TestMainEntry:
    def test_exit_one_on_picard_divergence(self, tmp_path):
        cfgfile = tmp_path / "div.cfg"
        cfgfile.write_text("""
[surface]
preset = graph_oscillation
T = 0.3
epsilon = 0.4
omega = 3.0

[grid]
n1 = 12
n2 = 12

[time]
dt = 1e-2

[solver]
tol = 1e-12
max_iter = 6
margin = 0.8
probes = 4
""")
        rc = main(["picard", "--config", str(cfgfile), "--out", str(tmp_path / "d")])
        assert rc == 1

    def test_mms_rejects_too_coarse_base(self, tmp_path):
        cfg = parse_config(MINIMAL)
        cfg.n1 = cfg.n2 = 8
        with pytest.raises(ConfigError, match="refinement study"):
            run_pipeline(cfg, "mms")

    def test_mms_rejects_a_non_square_grid(self, tmp_path):
        cfg = parse_config(MINIMAL)
        cfg.n1, cfg.n2 = 15, 20
        with pytest.raises(ConfigError, match="n2 = 20 must equal n1 = 15") as info:
            run_pipeline(cfg, "mms")
        assert info.value.key == "n2"

    def test_exit_zero_on_solve(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(MINIMAL.replace("n1 = 32", "n1 = 10")
                           .replace("n2 = 32", "n2 = 10")
                           .replace("T = 0.1", "T = 0.02"))
        rc = main(["solve", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert rc == 0

    def test_exit_two_on_bad_config(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(MINIMAL + "theta = 0.1\n")
        assert main(["solve", "--config", str(cfgfile)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["check", "--config", str(tmp_path / "nope.cfg")]) == 2


class TestVerifySuite:
    def test_decomposition_checks_scan_once(self, monkeypatch):
        # the weights come from the smallness report the checks build anyway
        def no_scan(*args, **kwargs):
            raise AssertionError("lambda_select called")

        monkeypatch.setattr(checks.co, "lambda_select", no_scan)
        cfg = parse_config(MINIMAL)
        records = checks._decomposition_checks(cfg, np.random.default_rng(cfg.seed))
        assert [c["name"] for c in records] == [
            "decomposition_sum", "weighted_selfadjointness", "perturbation_bound_violations"]
        assert all(c["passed"] for c in records)

    def test_readme_example_passes_every_check(self):
        report = cli.run_verify(parse_config(README_EXAMPLE))
        assert [c["name"] for c in report.verify_checks] == VERIFY_CHECK_NAMES
        assert all(c["passed"] for c in report.verify_checks)
        assert not report.failures
        assert list(report.timings) == [group for group, _ in checks.VERIFY]

    def test_failing_check_gives_nonzero_exit(self, tmp_path, monkeypatch, capsys):
        def failing(cfg, rng):
            return [{"name": "always_fails", "value": 1.0, "tol": 0.5, "passed": False}]

        monkeypatch.setattr(checks, "VERIFY", (checks.VERIFY[1], ("broken", failing)))
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(MINIMAL)
        rc = main(["verify", "--config", str(cfgfile), "--out", str(tmp_path / "v")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL] always_fails" in out
        assert "[pass] reduction_flat" in out
        report = (tmp_path / "v" / "report.txt").read_text()
        assert "check_always_fails = false\n" in report
        assert "time_broken = " in report and "failures = 1\n" in report

    def test_one_L_per_scan_time(self, count_calls):
        # reduction: 1 flat + 3 isotropic; decomposition: one frame per scan
        # time, whose last L also serves the symmetry and bound checks
        calls = count_calls(op, "assemble_L")
        cli.run_verify(parse_config(README_EXAMPLE))
        assert len(calls) == 9


class TestMMSWithoutSympy:
    def test_sine_product_partials_match_symbolic(self):
        domain = (-0.5, 1.0, 0.25, 1.05)
        a, b, c, d = domain

        def smooth(X1, X2, t):
            import sympy as sp
            return (sp.exp(-t) * sp.sin(sp.pi * (X1 - a) / (b - a))
                    * sp.sin(sp.pi * (X2 - c) / (d - c)))

        numeric = cli._sine_product_solution(domain)
        symbolic = manufactured_solution(smooth)
        X1, X2 = make_grid(domain, 13, 6).full_mesh()
        for name in SOLUTION_PARTIALS:
            for t in (0.0, 0.37):
                ref = symbolic.partial(name, X1, X2, t)
                got = numeric.partial(name, X1, X2, t)
                assert np.max(np.abs(got - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1.0), name

    def test_mms_run_imports_no_sympy(self):
        src = str(Path(evolvesurf.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        cfg_text = """
[surface]
preset = graph_oscillation
T = 0.05
epsilon = 0.1
omega = 2.0

[diffusion]
preset = sinusoidal
amp = 0.2

[grid]
n1 = 15
n2 = 15

[time]
dt = 0.005
"""
        code = "\n".join([
            "import sys",
            "import evolvesurf",
            "assert 'sympy' not in sys.modules, 'import evolvesurf loaded sympy'",
            "from evolvesurf import cli, config",
            "report, _ = cli.run_pipeline(config.parse_config(sys.argv[1]), 'mms')",
            "assert report.convergence_tables[0].monotone, 'mms errors not monotone'",
            "assert 'sympy' not in sys.modules, 'the mms run loaded sympy'",
        ])
        done = subprocess.run([sys.executable, "-c", code, cfg_text], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
