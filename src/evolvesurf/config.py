"""Run configuration: parsing, validation and serialization.

The format is plain "key = value" lines under bracketed section headers
([surface], [diffusion], [grid], [time], [solver], [output]).  Parse errors
name the offending key and line.  ``serialize_config`` emits a canonical text
whose round-trip through ``parse_config`` reproduces the configuration
exactly (floats are written with repr, which round-trips).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .coefficients import DIFFUSION_PARAMS, make_diffusion
from .errors import ConfigError
from .geometry import PRESET_PARAMS, make_chart, make_grid

_SECTIONS = ("surface", "diffusion", "grid", "time", "solver", "output")


@dataclass
class RunConfig:
    surface_preset: str
    horizon: float
    n1: int
    n2: int
    dt: float
    domain: tuple = (0.0, 1.0, 0.0, 1.0)
    surface_params: dict = dc_field(default_factory=dict)
    diffusion_preset: str = "constant"
    diffusion_params: dict = dc_field(default_factory=dict)
    h_fd: float = None
    theta: float = 0.5
    tol: float = 1e-8
    max_iter: int = 20
    probes: int = 16
    margin: float = 0.05
    seed: int = 42
    scan_times: int = 11
    v0_k1: int = 1
    v0_k2: int = 1
    out_dir: str = "out"
    snapshot_stride: int = 10
    dump_matrices: bool = False


def _parse_lines(text):
    """Raw scan: {(section, key): (value_string, line_number)}."""
    entries = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section '[{section}]'", line=lineno)
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        if section is None:
            raise ConfigError("key outside of any section", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError("empty key", line=lineno)
        if (section, key) in entries:
            raise ConfigError("duplicate key", key=key, line=lineno)
        entries[(section, key)] = (value, lineno)
    return entries


class _Reader:
    def __init__(self, entries):
        self.entries = dict(entries)

    def take(self, section, key, default=None, required=False):
        item = self.entries.pop((section, key), None)
        if item is None:
            if required:
                raise ConfigError(f"missing required key in [{section}]", key=key)
            return default, None
        return item

    def leftovers(self):
        return self.entries


def _to_float(value, key, line):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"expected a number, got '{value}'", key=key, line=line)


def _to_int(value, key, line):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"expected an integer, got '{value}'", key=key, line=line)


def _to_bool(value, key, line):
    v = value.strip().lower()
    if v in ("true", "yes", "1", "on"):
        return True
    if v in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got '{value}'", key=key, line=line)


def _take_floats(r, section, keys):
    """The ``keys`` set in [section], as floats."""
    params = {}
    for key in keys:
        v, ln = r.take(section, key)
        if v is not None:
            params[key] = _to_float(v, key, ln)
    return params


def parse_config(text):
    """Parse and validate a configuration text into a RunConfig."""
    entries = _parse_lines(text)
    r = _Reader(entries)

    preset, ln = r.take("surface", "preset", required=True)
    if preset not in PRESET_PARAMS:
        raise ConfigError(f"unknown surface preset '{preset}'", key="preset", line=ln)
    horizon_s, ln = r.take("surface", "T", required=True)
    horizon = _to_float(horizon_s, "T", ln)
    if horizon <= 0:
        raise ConfigError("T must be positive", key="T", line=ln)

    domain = [0.0, 1.0, 0.0, 1.0]
    for i, key in enumerate(("x1_min", "x1_max", "x2_min", "x2_max")):
        v, ln = r.take("surface", key)
        if v is not None:
            domain[i] = _to_float(v, key, ln)
        if i % 2 and not domain[i] > domain[i - 1]:
            raise ConfigError("domain rectangle is degenerate", key=key, line=ln)

    surface_params = _take_floats(r, "surface", PRESET_PARAMS[preset])

    dpreset, ln = r.take("diffusion", "preset", default="constant")
    if dpreset not in DIFFUSION_PARAMS:
        raise ConfigError(f"unknown diffusion preset '{dpreset}'", key="preset", line=ln)
    diffusion_params = _take_floats(r, "diffusion", DIFFUSION_PARAMS[dpreset])

    n1_s, ln1 = r.take("grid", "n1", required=True)
    n1 = _to_int(n1_s, "n1", ln1)
    n2_s, ln2 = r.take("grid", "n2", required=True)
    n2 = _to_int(n2_s, "n2", ln2)
    if n1 < 3:
        raise ConfigError("n1 must be at least 3", key="n1", line=ln1)
    if n2 < 3:
        raise ConfigError("n2 must be at least 3", key="n2", line=ln2)
    h_fd, ln = r.take("grid", "h_fd")
    if h_fd is not None:
        h_fd = _to_float(h_fd, "h_fd", ln)
        if h_fd <= 0:
            raise ConfigError("h_fd must be positive", key="h_fd", line=ln)

    dt_s, ln = r.take("time", "dt", required=True)
    dt = _to_float(dt_s, "dt", ln)
    if dt <= 0:
        raise ConfigError("dt must be positive", key="dt", line=ln)
    theta_s, ln = r.take("time", "theta", default="0.5")
    theta = _to_float(theta_s, "theta", ln)
    if not 0.5 <= theta <= 1.0:
        raise ConfigError("theta must lie in [0.5, 1]", key="theta", line=ln)

    tol_s, ln = r.take("solver", "tol", default="1e-8")
    tol = _to_float(tol_s, "tol", ln)
    if tol <= 0:
        raise ConfigError("tol must be positive", key="tol", line=ln)
    max_iter_s, ln = r.take("solver", "max_iter", default="20")
    max_iter = _to_int(max_iter_s, "max_iter", ln)
    if max_iter < 1:
        raise ConfigError("max_iter must be at least 1", key="max_iter", line=ln)
    probes_s, ln = r.take("solver", "probes", default="16")
    probes = _to_int(probes_s, "probes", ln)
    if probes < 1:
        raise ConfigError("probes must be at least 1", key="probes", line=ln)
    margin_s, ln = r.take("solver", "margin", default="0.05")
    margin = _to_float(margin_s, "margin", ln)
    if not 0.0 <= margin < 1.0:
        raise ConfigError("margin must lie in [0, 1)", key="margin", line=ln)
    seed_s, ln = r.take("solver", "seed", default="42")
    seed = _to_int(seed_s, "seed", ln)
    scan_s, ln = r.take("solver", "scan_times", default="11")
    scan_times = _to_int(scan_s, "scan_times", ln)
    if scan_times < 2:
        raise ConfigError("scan_times must be at least 2", key="scan_times", line=ln)
    modes = []
    for key in ("v0_k1", "v0_k2"):
        k_s, ln = r.take("solver", key, default="1")
        modes.append(_to_int(k_s, key, ln))
        if modes[-1] < 1:
            raise ConfigError("initial-datum mode numbers must be positive", key=key, line=ln)
    v0_k1, v0_k2 = modes

    out_dir, _ = r.take("output", "directory", default="out")
    stride_s, ln = r.take("output", "snapshot_stride", default="10")
    stride = _to_int(stride_s, "snapshot_stride", ln)
    if stride < 1:
        raise ConfigError("snapshot_stride must be at least 1", key="snapshot_stride", line=ln)
    dump_s, ln = r.take("output", "dump_matrices", default="false")
    dump = _to_bool(dump_s, "dump_matrices", ln)

    # a parameter of another preset of the family is as unknown as a typo
    readers = {"surface": preset, "diffusion": dpreset}
    for (section, key), (_, lineno) in r.leftovers().items():
        reader = f": preset '{readers[section]}' does not read it" if section in readers else ""
        raise ConfigError(f"unknown key in [{section}]{reader}", key=key, line=lineno)

    return RunConfig(
        surface_preset=preset, horizon=horizon, domain=tuple(domain),
        surface_params=surface_params,
        diffusion_preset=dpreset, diffusion_params=diffusion_params,
        n1=n1, n2=n2, h_fd=h_fd, dt=dt, theta=theta,
        tol=tol, max_iter=max_iter, probes=probes, margin=margin,
        seed=seed, scan_times=scan_times, v0_k1=v0_k1, v0_k2=v0_k2,
        out_dir=out_dir, snapshot_stride=stride, dump_matrices=dump,
    )


def serialize_config(cfg):
    """Canonical text form; parse_config(serialize_config(c)) == c."""
    lines = ["[surface]", f"preset = {cfg.surface_preset}", f"T = {cfg.horizon!r}"]
    for i, key in enumerate(("x1_min", "x1_max", "x2_min", "x2_max")):
        lines.append(f"{key} = {cfg.domain[i]!r}")
    lines += [f"{key} = {value!r}" for key, value in cfg.surface_params.items()]
    lines += ["", "[diffusion]", f"preset = {cfg.diffusion_preset}"]
    lines += [f"{key} = {value!r}" for key, value in cfg.diffusion_params.items()]
    lines += ["", "[grid]", f"n1 = {cfg.n1}", f"n2 = {cfg.n2}"]
    if cfg.h_fd is not None:
        lines.append(f"h_fd = {cfg.h_fd!r}")
    lines += ["", "[time]", f"dt = {cfg.dt!r}", f"theta = {cfg.theta!r}"]
    lines += ["", "[solver]",
              f"tol = {cfg.tol!r}", f"max_iter = {cfg.max_iter}", f"probes = {cfg.probes}",
              f"margin = {cfg.margin!r}", f"seed = {cfg.seed}",
              f"scan_times = {cfg.scan_times}",
              f"v0_k1 = {cfg.v0_k1}", f"v0_k2 = {cfg.v0_k2}"]
    lines += ["", "[output]",
              f"directory = {cfg.out_dir}",
              f"snapshot_stride = {cfg.snapshot_stride}",
              f"dump_matrices = {'true' if cfg.dump_matrices else 'false'}"]
    return "\n".join(lines) + "\n"


# builders from a validated configuration

def config_chart(cfg):
    return make_chart(cfg.surface_preset, domain=cfg.domain, horizon=cfg.horizon,
                      **cfg.surface_params)


def config_diffusion(cfg):
    return make_diffusion(cfg.diffusion_preset, **cfg.diffusion_params)


def config_grid(cfg):
    return make_grid(cfg.domain, cfg.n1, cfg.n2, h_fd=cfg.h_fd)


def config_initial_datum(cfg, grid):
    """Product-sine initial datum, vanishing on the rectangle boundary."""
    a, b, c, d = cfg.domain
    X1, X2 = grid.interior_mesh(sparse=True)
    s1 = (X1 - a) / (b - a)
    s2 = (X2 - c) / (d - c)
    return (np.sin(cfg.v0_k1 * np.pi * s1) * np.sin(cfg.v0_k2 * np.pi * s2)).ravel()


def scan_times_list(cfg):
    return list(np.linspace(0.0, cfg.horizon, cfg.scan_times))
