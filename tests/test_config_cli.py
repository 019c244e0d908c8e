import csv
import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import evolvesurf
from evolvesurf import ConfigError, make_chart, make_diffusion, make_grid, user_chart
from evolvesurf import checks, cli, config
from evolvesurf import operator as op
from evolvesurf.cli import _dump_matrix, _write_vtk_snapshot, main, run_pipeline, write_outputs
from evolvesurf.coefficients import DIFFUSION_PARAMS
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
from evolvesurf.geometry import PARTIAL_KEYS, PRESET_PARAMS as SURFACE_PARAMS
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

    @pytest.mark.parametrize("bounds,key", [
        ("x1_max = 1e-200", "x1_max"),                  # h1^2 underflows to 0
        ("x1_min = 0.0\nx1_max = 1e-160", "x1_max"),    # h1^2 is subnormal
        ("x2_min = -1e300\nx2_max = 1e300", "x2_max"),  # h2^2 overflows
    ])
    def test_rectangle_whose_step_squared_is_not_normal_is_refused(self, bounds, key):
        # the stencils divide by h^2: 0 made assemble_A raise ZeroDivisionError
        text = MINIMAL.replace("T = 0.1", f"T = 0.1\n{bounds}")
        with pytest.raises(ConfigError, match=r"\^2 is not a normal float") as exc:
            parse_config(text)
        assert exc.value.key == key
        assert exc.value.line == _line_of(text, bounds.splitlines()[-1])

    def test_round_trip_exact(self):
        cfg = parse_config(MINIMAL)
        assert parse_config(serialize_config(cfg)) == cfg
        rich = RunConfig(
            surface_preset="graph_oscillation", horizon=0.37, n1=12, n2=14,
            dt=2.5e-3, domain=(0.0, 2.0, -1.0, 1.0),
            surface_params={"epsilon": 0.07, "omega": 1.3},
            diffusion_preset="sinusoidal",
            diffusion_params={"base": 1.1, "amp": 0.25},
            theta=0.75, tol=1e-9, max_iter=12,
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


# every numeric key: (section, key, RunConfig field, the preset that reads it,
# a value outside its bound or None when nothing bounds it)
NUMERIC_KEYS = [
    ("surface", "T", "horizon", None, "0"),
    ("surface", "x1_min", "domain", None, None),
    ("surface", "x1_max", "domain", None, "-0.5"),
    ("surface", "x2_min", "domain", None, None),
    ("surface", "x2_max", "domain", None, "0"),
    ("surface", "gamma", "surface_params", "isotropic_scaling", None),
    ("surface", "epsilon", "surface_params", "graph_oscillation", None),
    ("surface", "omega", "surface_params", "graph_oscillation", None),
    ("surface", "c", "surface_params", "translating_patch", None),
    ("diffusion", "value", "diffusion_params", "constant", None),
    ("diffusion", "base", "diffusion_params", "sinusoidal", None),
    ("diffusion", "amp", "diffusion_params", "sinusoidal", None),
    ("grid", "n1", "n1", None, "2"),
    ("grid", "n2", "n2", None, "2"),
    ("time", "dt", "dt", None, "-1e-3"),
    ("time", "theta", "theta", None, "1.5"),
    ("solver", "tol", "tol", None, "0"),
    ("solver", "max_iter", "max_iter", None, "0"),
    ("solver", "probes", "probes", None, "0"),
    ("solver", "margin", "margin", None, "1"),
    ("solver", "seed", "seed", None, "-3"),
    ("solver", "scan_times", "scan_times", None, "1"),
    ("solver", "v0_k1", "v0_k1", None, "0"),
    ("solver", "v0_k2", "v0_k2", None, "0"),
    ("output", "snapshot_stride", "snapshot_stride", None, "0"),
]
FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}
INTEGER_FIELDS = {name for name, f in FIELDS.items() if f.type in (int, "int")}


def _numeric_text(section, key, preset, value):
    """A valid configuration, then ``key = value`` in [section] (value None: key unset)."""
    sections = {
        "surface": [f"preset = {preset if section == 'surface' and preset else 'flat_static'}",
                    "T = 0.1"],
        "diffusion": [f"preset = {preset if section == 'diffusion' else 'constant'}"],
        "grid": ["n1 = 12", "n2 = 12"],
        "time": ["dt = 1e-3"],
        "solver": [],
        "output": [],
    }
    lines = [line for line in sections[section] if not line.startswith(f"{key} =")]
    sections[section] = lines + ([] if value is None else [f"{key} = {value}"])
    return "".join(f"[{name}]\n" + "".join(f"{line}\n" for line in body) + "\n"
                   for name, body in sections.items())


def _bad_numbers():
    for section, key, field, preset, out_of_bound in NUMERIC_KEYS:
        integer = field in INTEGER_FIELDS
        for value in ("nan", "inf", "-inf"):
            message = (f"expected an integer, got '{value}'" if integer
                       else f"expected a finite number, got '{value}'")
            yield pytest.param(section, key, preset, value, message, id=f"{key}={value}")
        message = "expected an integer, got 'ten'" if integer else "expected a number, got 'ten'"
        yield pytest.param(section, key, preset, "ten", message, id=f"{key}=ten")
        if out_of_bound is not None:
            yield pytest.param(section, key, preset, out_of_bound, None,
                               id=f"{key}={out_of_bound}")


class TestNumericKeys:
    def test_every_numeric_key_is_listed(self):
        keys = {row.key for row in config._KEYS if row.kind in (int, float)}
        keys |= {"x1_min", "x1_max", "x2_min", "x2_max"}
        keys |= {key for params in (*SURFACE_PARAMS.values(), *DIFFUSION_PARAMS.values())
                 for key in params}
        assert sorted(key for _, key, *_ in NUMERIC_KEYS) == sorted(keys)

    @pytest.mark.parametrize("section,key,preset,value,message", list(_bad_numbers()))
    def test_bad_value_names_key_and_line(self, section, key, preset, value, message):
        text = _numeric_text(section, key, preset, value)
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert (exc.value.key, exc.value.line) == (key, _line_of(text, f"{key} = {value}"))
        if message is not None:
            assert str(exc.value).startswith(message + " (")

    @pytest.mark.parametrize("section,key,field,preset", [row[:4] for row in NUMERIC_KEYS],
                             ids=[row[1] for row in NUMERIC_KEYS])
    def test_unset_key_takes_the_default(self, section, key, field, preset):
        text = _numeric_text(section, key, preset, None)
        if field.endswith("_params"):
            assert key not in getattr(parse_config(text), field)
        elif FIELDS[field].default is dataclasses.MISSING:
            with pytest.raises(ConfigError, match=r"missing required key") as exc:
                parse_config(text)
            assert exc.value.key == key
        else:
            assert getattr(parse_config(text), field) == FIELDS[field].default


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
        # the march's full-mesh metric, which the reports read too
        assert len(metrics) == traj.nsteps + 1

    def test_picard(self, count_calls):
        from evolvesurf import geometry, operator
        assembled = count_calls(operator, "assemble_L")
        metrics = count_calls(geometry, "metric_fields")
        cfg = parse_config(MOVING)
        report, traj = run_pipeline(cfg, "picard")
        assert report.picard_history.converged and not report.failures
        assert len(assembled) == traj.nsteps + 1
        # one scan per scan time and the direct march's full-mesh metric per
        # step time, which its energy ledger reads too
        assert len(metrics) == cfg.scan_times + traj.nsteps + 1


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
        assert header == "time,mass,dissipation,dilation,residual_abs,residual_rel"

    def test_flat_snapshot_embeds_identity(self, tmp_path):
        cfg, _, _ = self._run(tmp_path, snapshot_stride=20)
        head, points, _ = _read_vtk(Path(cfg.out_dir) / "snapshot_0000.vtk")
        assert head[3] == "DATASET STRUCTURED_GRID"
        assert head[4] == "DIMENSIONS 12 12 1"
        # second point is (h1, 0, 0) for the identity embedding
        assert points[1].tolist() == [1.0 / 11, 0.0, 0.0]

    def test_isotropic_snapshot_points_scale(self, tmp_path):
        cfg, _, _ = self._run(
            tmp_path, surface_preset="isotropic_scaling",
            surface_params={"gamma": 1.0}, snapshot_stride=10)
        snaps = sorted(Path(cfg.out_dir).glob("snapshot_*.vtk"))
        assert len(snaps) == 3
        first = _read_vtk(snaps[0])[1][1]
        last = _read_vtk(snaps[-1])[1][1]
        t_last = 0.02
        assert last[0] == pytest.approx(first[0] * math.exp(t_last), rel=1e-12)

    def test_solve_snapshots_decode_to_the_trajectory(self, tmp_path):
        cfg = parse_config(MINIMAL.replace("flat_static", "graph_oscillation\nepsilon = 0.05"))
        cfg.n1, cfg.n2 = 9, 6
        cfg.horizon, cfg.probes, cfg.snapshot_stride = 0.02, 4, 7
        report, traj = run_pipeline(cfg, "solve")
        write_outputs(report, traj, tmp_path, cfg=cfg)
        chart = config_chart(cfg)
        steps = range(0, traj.nsteps + 1, cfg.snapshot_stride)
        assert sorted(tmp_path.glob("snapshot_*.vtk")) == [
            tmp_path / f"snapshot_{k:04d}.vtk" for k in steps]
        # the march kept exactly the rows it writes
        assert traj.steps == steps and len(traj.fields) == len(steps)
        for k, row in zip(steps, traj.fields):
            _, points, values = _read_vtk(tmp_path / f"snapshot_{k:04d}.vtk")
            _, ref_points, _ = _vtk_per_point(chart, traj.grid, row, traj.times[k])
            assert points.astype(np.float64).tobytes() == np.array(ref_points).tobytes()
            assert values.astype(np.float64).tobytes() == \
                traj.grid.pad_dirichlet(row).T.tobytes()

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

    @pytest.mark.parametrize("subcommand,written", [
        ("solve", {"report.txt", "energy.csv", "snapshot_0000.vtk", "snapshot_0020.vtk"}),
        ("picard", {"report.txt", "conditions.csv", "energy.csv", "picard.csv"}),
        ("mms", {"report.txt", "convergence.csv"}),
    ])
    def test_whole_solve_run_is_byte_reproducible(self, tmp_path, subcommand, written):
        # every file of a moving solve, picard or mms run, snapshots and CSVs
        # included, is byte-identical for one seed; report.txt differs only in
        # its time_* lines.  mms refines from 15 nodes, the least it takes
        grid = {"n1": 15, "n2": 15} if subcommand == "mms" else {}
        runs = [self._run(tmp_path / side, subcommand=subcommand,
                          surface_preset="graph_oscillation",
                          surface_params={"epsilon": 0.05, "omega": 1.0},
                          seed=11, snapshot_stride=10, **grid)
                for side in ("a", "b")]
        names = [[Path(p).name for p in manifest] for _, _, manifest in runs]
        assert names[0] == names[1]
        assert written <= set(names[0])
        for name in names[0]:
            b1, b2 = ((Path(cfg.out_dir) / name).read_bytes() for cfg, _, _ in runs)
            if name == "report.txt":
                b1, b2 = (b"".join(line for line in b.splitlines(keepends=True)
                                   if not line.startswith(b"time_")) for b in (b1, b2))
            assert b1 == b2, name


# Per-point reference writers: the loops the array-at-a-time writers replaced.


def _fmt_ref(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _vtk_per_point(chart, grid, values, t):
    """Header lines, points and values of a snapshot, one point at a time (j outer, i inner)."""
    X1, X2 = grid.full_mesh()
    pts = np.broadcast_arrays(*chart.evals["x"](X1, X2, t), X1)   # constants as scalars
    full = grid.pad_dirichlet(values)
    n1p, n2p = X1.shape
    head = [
        "# vtk DataFile Version 3.0",
        f"evolving surface snapshot t={_fmt_ref(float(t))}",
        "BINARY",
        "DATASET STRUCTURED_GRID",
        f"DIMENSIONS {n1p} {n2p} 1",
        f"POINTS {n1p * n2p} double",
        f"POINT_DATA {n1p * n2p}",
        "SCALARS u double 1",
        "LOOKUP_TABLE default",
    ]
    points, point_values = [], []
    for j in range(n2p):
        for i in range(n1p):
            points.append([float(pts[0][i, j]), float(pts[1][i, j]), float(pts[2][i, j])])
            point_values.append(float(full[i, j]))
    return head, points, point_values


def _read_vtk(path, dtype=">f8"):
    """Header lines, points (n, 3) and values (n,) of a binary legacy-VTK snapshot.

    The two blocks are decoded as ``dtype``; each must end with a newline.
    """
    data = Path(path).read_bytes()
    pos = 0

    def line():
        nonlocal pos
        end = data.index(b"\n", pos)
        text, pos = data[pos:end].decode("ascii"), end + 1
        return text

    def block(count):
        nonlocal pos
        out = np.frombuffer(data, dtype, count, pos)
        pos += out.nbytes
        assert data[pos:pos + 1] == b"\n"
        pos += 1
        return out

    head = [line() for _ in range(6)]
    n = int(head[5].split()[1])
    points = block(3 * n).reshape(n, 3)
    head += [line() for _ in range(3)]
    values = block(n)
    assert pos == len(data)
    return head, points, values


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
        values[:3] = (-0.0, 1e-300, -2.5e17)   # signed zero and extreme exponents
        path = tmp_path / "snapshot.vtk"
        _write_vtk_snapshot(path, chart, self.GRID, values, t)
        head, points, point_values = _read_vtk(path)
        ref_head, ref_points, ref_values = _vtk_per_point(chart, self.GRID, values, t)
        assert head == ref_head
        assert points.astype(np.float64).tobytes() == np.array(ref_points).tobytes()
        assert point_values.astype(np.float64).tobytes() == np.array(ref_values).tobytes()
        # big-endian: the little-endian reading of the same bytes is other numbers
        assert _read_vtk(path, "<f8")[2].tobytes() != np.array(ref_values).tobytes()
        # the zero Dirichlet ring is written around the interior values
        n1p, n2p = self.GRID.n1 + 2, self.GRID.n2 + 2
        grid_values = point_values.astype(np.float64).reshape(n2p, n1p)
        ring = np.concatenate([grid_values[0], grid_values[-1],
                               grid_values[:, 0], grid_values[:, -1]])
        assert not ring.view(np.uint64).any()

    @pytest.mark.parametrize("name,params", PRESET_PARAMS)
    @pytest.mark.parametrize("t", [0.0, 0.37])
    def test_snapshot_matches_per_point_writer(self, tmp_path, name, params, t):
        chart = make_chart(name, domain=self.GRID.domain, horizon=1.0, **params)
        self._check_snapshot(tmp_path, chart, t)

    def test_snapshot_with_integer_coordinates(self, tmp_path):
        def lattice(x1, x2, t):
            x1, x2 = np.broadcast_arrays(x1, x2)
            return np.stack([np.rint(8 * x1), np.rint(8 * x2), 0 * x1]).astype(int)

        # the writer reads only the embedding; the other partials are zero
        zero = lambda x1, x2, t: (0, 0, 0)
        chart = user_chart({**dict.fromkeys(PARTIAL_KEYS, zero), "x": lattice},
                           self.GRID.domain, 1.0)
        self._check_snapshot(tmp_path, chart, 0.37)

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

    @pytest.mark.parametrize("n1,n2,key", [(12, 12, "n1"), (15, 20, "n2")])
    def test_mms_run_time_config_errors_exit_two(self, tmp_path, capsys, n1, n2, key):
        # refused by run_pipeline, not by the parser, and exits as a parse-time error does
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(MINIMAL.replace("n1 = 32", f"n1 = {n1}")
                           .replace("n2 = 32", f"n2 = {n2}"))
        assert main(["mms", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f"(key '{key}')\n")
        assert err.count("\n") == 1

    def test_huge_horizon_exits_one_before_any_step(self, tmp_path, capsys):
        # 10^12 steps: the step times and kept rows are refused before the march
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(MINIMAL.replace("T = 0.1", "T = 1e9")
                           .replace("n1 = 32", "n1 = 5").replace("n2 = 32", "n2 = 5"))
        assert main(["solve", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 1
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        assert err.count("\n") == 1
        assert err.startswith("error: 1000000000000 steps do not fit in memory: their "
                              "1000000000001 step times and 100000000001 kept rows of 25 values")
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("subcommand,key,value", [
        ("mms", "dt", "nan"), ("mms", "T", "nan"), ("mms", "dt", "inf"),
        ("solve", "theta", "nan"), ("solve", "T", "inf"),
        ("check", "seed", "-3"), ("picard", "seed", "-3"), ("verify", "seed", "-3")])
    def test_rejected_text_exits_two_naming_key_and_line(self, tmp_path, capsys,
                                                         subcommand, key, value):
        section = next(row[0] for row in NUMERIC_KEYS if row[1] == key)
        text = _numeric_text(section, key, None, value)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(text)
        assert main([subcommand, "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.endswith(f"(key '{key}', line {_line_of(text, f'{key} = {value}')})\n")
        assert not (tmp_path / "o").exists()

    def test_removed_fd_step_key_exits_two_naming_it(self, tmp_path, capsys):
        # every chart carries its partials, so [grid] has no finite-difference step
        text = _numeric_text("grid", "h_fd", None, "1e-5")
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(text)
        assert main(["solve", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: unknown key in [grid] (key 'h_fd', line {_line_of(text, 'h_fd = 1e-5')})\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subcommand", ["check", "solve"])
    def test_tiny_rectangle_exits_two_naming_its_key(self, tmp_path, capsys, subcommand):
        text = MINIMAL.replace("T = 0.1", "T = 0.1\nx1_max = 1e-200")
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(text)
        assert main([subcommand, "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"(key 'x1_max', line {_line_of(text, 'x1_max = 1e-200')})\n")
        assert not (tmp_path / "o").exists()

    def test_seed_flag_is_checked_like_the_seed_key(self, tmp_path, capsys):
        text = MINIMAL + "\n[solver]\nseed = -3\n"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(text)
        assert main(["check", "--config", str(cfgfile)]) == 2
        assert capsys.readouterr().err == ("error: seed must be non-negative "
                                           f"(key 'seed', line {_line_of(text, 'seed = -3')})\n")
        cfgfile.write_text(MINIMAL)
        assert main(["check", "--config", str(cfgfile), "--seed", "-3",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: seed must be non-negative (key 'seed')\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subcommand", ["solve", "mms", "check", "picard"])
    @pytest.mark.parametrize("value", ["-1.0", "0.0"])
    def test_diffusivity_not_positive_exits_one(self, tmp_path, capsys, subcommand, value):
        # solve and mms stop at the first step frame, naming its time; check
        # and picard stop after the smallness scan, naming the scan minimum
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(_numeric_text("diffusion", "value", "constant", value)
                           .replace("n1 = 12", "n1 = 15").replace("n2 = 12", "n2 = 15"))
        rc = main([subcommand, "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        where = (f"scan minimum {float(value):.6g}" if subcommand in ("check", "picard")
                 else f"minimum {float(value):.6g} at t = 0")
        assert rc == 1
        assert capsys.readouterr().err == f"error: kappa must be strictly positive; {where}\n"

    @pytest.mark.parametrize("subcommand", ["solve", "check", "picard"])
    def test_overflowing_diffusivity_exits_one(self, tmp_path, capsys, subcommand):
        # base + amp sin(pi X1) sin(pi X2) overflows to inf at the centre
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(_numeric_text("diffusion", "base", "sinusoidal", "1e308")
                           .replace("[diffusion]\n", "[diffusion]\namp = 1e308\n"))
        rc = main([subcommand, "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        where = ("minimum 1e+308, maximum inf" if subcommand in ("check", "picard")
                 else "maximum inf")
        assert rc == 1
        assert capsys.readouterr().err == f"error: kappa must be finite; {where} at t = 0\n"

    @pytest.mark.parametrize("subcommand", ["check", "solve", "picard", "verify"])
    @pytest.mark.parametrize("surface", [
        "preset = isotropic_scaling\nT = 1\ngamma = 400",
        "preset = isotropic_scaling\nT = 2\ngamma = 200",
        "preset = graph_oscillation\nT = 1\nepsilon = 1e200",
        # G = 1 + a^2 |grad phi|^2 would reach about 1e159, but g11 g22 overflows
        "preset = graph_oscillation\nT = 1\nepsilon = 3e79",
    ], ids=["gamma400", "gamma200", "epsilon1e200", "epsilon3e79"])
    def test_overflowing_metric_exits_one_naming_X_and_t(self, tmp_path, capsys,
                                                          subcommand, surface):
        # G or dG/dt overflows to inf or nan within the horizon: the first
        # frame or scan time that meets it refuses the chart, before any
        # operator, norm estimate or step is built from it
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"[surface]\n{surface}\n\n[grid]\nn1 = 8\nn2 = 8\n\n"
                           "[time]\ndt = 0.01\n")
        rc = main([subcommand, "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        out, err = capsys.readouterr()
        assert rc == 1
        assert "Traceback" not in out + err
        assert err.count("\n") == 1
        match = re.fullmatch(r"error: degenerate chart: (G|dG/dt) = (inf|nan) is not finite "
                             r"at X = \((\S+), (\S+)\), t = (\S+)\n", err)
        assert match, err
        X1, X2, t = (float(v) for v in match.groups()[2:])
        assert 0.0 <= X1 <= 1.0 and 0.0 <= X2 <= 1.0 and 0.0 < t <= 2.0

    def test_scale_factor_past_the_float_range_exits_one_naming_t(self, tmp_path, capsys):
        # gamma t = 1000 at the only step: e^{gamma t} itself overflows, not
        # only G, and the step frame of t = 1 refuses the chart
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("[surface]\npreset = isotropic_scaling\nT = 1\ngamma = 1000\n\n"
                           "[grid]\nn1 = 8\nn2 = 8\n\n[time]\ndt = 1\n")
        rc = main(["solve", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: degenerate chart: G = nan is not finite at X = (0.0, 0.0), t = 1\n")

    def test_mms_refuses_an_overflowing_diffusivity_before_its_forcing_warns(self, tmp_path,
                                                                             capsys):
        # the suite turns warnings into errors: the manufactured forcing checks
        # kappa before kappa times a metric partial of 0 makes a nan
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("[surface]\npreset = graph_oscillation\nT = 0.1\nepsilon = 0.05\n"
                           "omega = 1.0\n\n[diffusion]\npreset = sinusoidal\nbase = 1e308\n"
                           "amp = 1e308\n\n[grid]\nn1 = 15\nn2 = 15\n\n[time]\ndt = 0.01\n")
        rc = main(["mms", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == "error: kappa must be finite; maximum inf at t = 0\n"


class TestBoundedMemory:
    """``solve`` holds the march's window and the snapshots it writes, not the trajectory;
    ``picard`` holds one window of the existence horizon."""

    CONFIG = MINIMAL.replace("n1 = 32", "n1 = 31").replace("n2 = 32", "n2 = 31") \
        + "\n[output]\nsnapshot_stride = 1000\n"

    def test_peak_rss_independent_of_step_count(self, tmp_path, cli_peak_rss_mib):
        # budget: about 4 s on a 2-vCPU host for both runs, each stopped after
        # 60 s.  Keeping all 10^4 rows of 961 values would add 66 MiB to the
        # peak of the 10^3-step run; the window and 11 snapshots add none
        peaks = []
        for horizon in ("1.0", "10.0"):
            cfgfile = tmp_path / f"T{horizon}.cfg"
            cfgfile.write_text(self.CONFIG.replace("T = 0.1", f"T = {horizon}"))
            peaks.append(cli_peak_rss_mib(
                ["solve", "--config", str(cfgfile), "--out", str(tmp_path / horizon)], 60))
        assert len(list((tmp_path / "10.0").glob("snapshot_*.vtk"))) == 11
        assert abs(peaks[1] - peaks[0]) <= 5.0, peaks

    PICARD = ("[surface]\npreset = graph_oscillation\nT = 1.0\nepsilon = 0.01\nomega = 1.0\n\n"
              "[grid]\nn1 = 7\nn2 = 7\n\n[time]\ndt = 1e-3\n\n"
              "[output]\nsnapshot_stride = 100000\n")

    def test_picard_peak_rss_independent_of_step_count(self, tmp_path, cli_peak_rss_mib):
        # budget: about 8 s on a 2-vCPU host for both runs, each stopped after
        # 60 s.  T_star_24 (0.25 over T = 1, 0.19 over T = 10) cuts 10^3 steps
        # into 5 windows and 10^4 steps into 53, and a window's operators and
        # rows are dropped before the next; keeping L(t_k) and the iterates of
        # every step added 52 MiB to the 10^4-step peak
        peaks = []
        for horizon in ("1.0", "10.0"):
            cfgfile = tmp_path / f"T{horizon}.cfg"
            cfgfile.write_text(self.PICARD.replace("T = 1.0", f"T = {horizon}"))
            peaks.append(cli_peak_rss_mib(
                ["picard", "--config", str(cfgfile), "--out", str(tmp_path / horizon)], 60))
        report = (tmp_path / "10.0" / "report.txt").read_text()
        assert "picard_windows = 53\n" in report and "picard_converged = true\n" in report
        rows = list(csv.reader((tmp_path / "10.0" / "picard.csv").read_text().splitlines()))
        assert rows[0] == ["window", "iteration", "z_norm", "diff_norm", "ratio"]
        assert [r[0] for r in rows[1:] if r[1] == "1"] == [str(w) for w in range(53)]
        assert all((r[4] == "") == (r[1] == "1") for r in rows[1:])
        assert abs(peaks[1] - peaks[0]) <= 5.0, peaks


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

    def test_mms_run_imports_no_sympy(self, tmp_path):
        # nor does a moving run load scipy.linalg or scipy.sparse.linalg: only
        # the LU of a static L imports the latter
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
        moving, static = tmp_path / "moving.cfg", tmp_path / "static.cfg"
        moving.write_text(cfg_text)
        static.write_text(MINIMAL.replace("n1 = 32", "n1 = 10").replace("n2 = 32", "n2 = 10"))
        code = "\n".join([
            "import sys",
            "import evolvesurf",
            "assert 'sympy' not in sys.modules, 'import evolvesurf loaded sympy'",
            "from evolvesurf import cli, config",
            "moving, static, out = sys.argv[1:]",
            "linalg = lambda: [m for m in ('scipy.linalg', 'scipy.sparse.linalg')",
            "                  if m in sys.modules]",
            "assert not linalg(), f'import evolvesurf.cli loaded {linalg()}'",
            "for sub in ('check', 'solve', 'picard'):",
            "    assert cli.main([sub, '--config', moving, '--out', f'{out}/{sub}']) == 0, sub",
            "    assert not linalg(), f'the {sub} run loaded {linalg()}'",
            "cfg = config.parse_config(open(moving).read())",
            "report, traj = cli.run_pipeline(cfg, 'mms')",
            "cli.write_outputs(report, traj, f'{out}/mms', cfg=cfg)",
            "assert report.convergence_tables[0].monotone, 'mms errors not monotone'",
            "assert 'sympy' not in sys.modules, 'the mms run loaded sympy'",
            "assert not linalg(), f'the mms run loaded {linalg()}'",
            "assert cli.main(['solve', '--config', static, '--out', f'{out}/static']) == 0",
            "assert 'scipy.sparse.linalg' in sys.modules, 'a static solve made no LU'",
        ])
        done = subprocess.run([sys.executable, "-c", code, str(moving), str(static),
                               str(tmp_path / "out")], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
