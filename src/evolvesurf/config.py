"""Run configuration: parsing, validation and serialization.

The format is plain "key = value" lines under bracketed section headers
([surface], [diffusion], [grid], [time], [solver], [output]).  Parse errors
name the offending key and line.

``RunConfig``'s field defaults are the only defaults: a key is required
exactly when its field has none.  ``_KEYS`` is the table of the scalar keys,
one row per key: its section, its key, the ``RunConfig`` field it sets, its
kind (float, int, bool or str), its bound (a predicate, or None) and the
message of a value out of bound.  ``parse_config`` and ``serialize_config``
both loop over the rows, so a scalar key is one row plus one field.  The
surface and diffusion presets, the four domain keys and the preset parameters
have code of their own, because which keys are read, and what bounds them,
depends on other keys; ``parse_config`` reads them first, then the rows in
table order, and reports the first fault it meets.  Every number must be
finite, and the squares of the grid steps h1 = (x1_max - x1_min)/(n1 + 1)
and h2 must be normal floats: a rectangle that fails is refused under
x1_max or x2_max.

``serialize_config`` emits a canonical text whose round-trip through
``parse_config`` reproduces the configuration exactly (floats are written
with repr, which round-trips).
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import MISSING, dataclass, field as dc_field, fields

import numpy as np

from .coefficients import DIFFUSION_PARAMS, make_diffusion
from .errors import ConfigError
from .geometry import PRESET_PARAMS, make_chart, make_grid

_SECTIONS = ("surface", "diffusion", "grid", "time", "solver", "output")
_DOMAIN_KEYS = ("x1_min", "x1_max", "x2_min", "x2_max")


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


_DEFAULTS = {f.name: f.default for f in fields(RunConfig) if f.default is not MISSING}

_Key = namedtuple("_Key", "section key field kind bound message")

_KEYS = tuple(_Key(*row) for row in (
    ("surface", "T", "horizon", float, lambda v: v > 0, "T must be positive"),
    ("grid", "n1", "n1", int, lambda v: v >= 3, "n1 must be at least 3"),
    ("grid", "n2", "n2", int, lambda v: v >= 3, "n2 must be at least 3"),
    ("grid", "h_fd", "h_fd", float, lambda v: v > 0, "h_fd must be positive"),
    ("time", "dt", "dt", float, lambda v: v > 0, "dt must be positive"),
    ("time", "theta", "theta", float, lambda v: 0.5 <= v <= 1.0, "theta must lie in [0.5, 1]"),
    ("solver", "tol", "tol", float, lambda v: v > 0, "tol must be positive"),
    ("solver", "max_iter", "max_iter", int, lambda v: v >= 1, "max_iter must be at least 1"),
    ("solver", "probes", "probes", int, lambda v: v >= 1, "probes must be at least 1"),
    ("solver", "margin", "margin", float, lambda v: 0.0 <= v < 1.0, "margin must lie in [0, 1)"),
    ("solver", "seed", "seed", int, lambda v: v >= 0, "seed must be non-negative"),
    ("solver", "scan_times", "scan_times", int, lambda v: v >= 2,
     "scan_times must be at least 2"),
    ("solver", "v0_k1", "v0_k1", int, lambda v: v >= 1,
     "initial-datum mode numbers must be positive"),
    ("solver", "v0_k2", "v0_k2", int, lambda v: v >= 1,
     "initial-datum mode numbers must be positive"),
    ("output", "directory", "out_dir", str, None, None),
    ("output", "snapshot_stride", "snapshot_stride", int, lambda v: v >= 1,
     "snapshot_stride must be at least 1"),
    ("output", "dump_matrices", "dump_matrices", bool, None, None),
))
_KEY_ROWS = {row.key: row for row in _KEYS}


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


def _take(entries, section, key, default=None, required=False):
    """Pop (value string, line) of the key from ``entries``; (default, None) if unset."""
    item = entries.pop((section, key), None)
    if item is None:
        if required:
            raise ConfigError(f"missing required key in [{section}]", key=key)
        return default, None
    return item


def _to_float(value, key, line):
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"expected a number, got '{value}'", key=key, line=line)
    if not math.isfinite(number):
        raise ConfigError(f"expected a finite number, got '{value}'", key=key, line=line)
    return number


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


_READ = {float: _to_float, int: _to_int, bool: _to_bool, str: lambda value, key, line: value}
_WRITE = {float: repr, int: str, bool: lambda v: "true" if v else "false", str: str}


def check_value(key, value, line=None):
    """``value`` of the table key ``key`` if it lies in the key's bound; else ConfigError."""
    row = _KEY_ROWS[key]
    if row.bound is not None and not row.bound(value):
        raise ConfigError(row.message, key=key, line=line)
    return value


def _take_floats(entries, section, keys):
    """The ``keys`` set in [section], as floats."""
    params = {}
    for key in keys:
        v, ln = _take(entries, section, key)
        if v is not None:
            params[key] = _to_float(v, key, ln)
    return params


def parse_config(text):
    """Parse and validate a configuration text into a RunConfig."""
    entries = _parse_lines(text)

    preset, ln = _take(entries, "surface", "preset", required=True)
    if preset not in PRESET_PARAMS:
        raise ConfigError(f"unknown surface preset '{preset}'", key="preset", line=ln)
    domain = list(_DEFAULTS["domain"])
    domain_lines = {}
    for i, key in enumerate(_DOMAIN_KEYS):
        v, ln = _take(entries, "surface", key)
        if v is not None:
            domain[i] = _to_float(v, key, ln)
        domain_lines[key] = ln
        if i % 2 and not domain[i] > domain[i - 1]:
            raise ConfigError("domain rectangle is degenerate", key=key, line=ln)
    surface_params = _take_floats(entries, "surface", PRESET_PARAMS[preset])

    dpreset, ln = _take(entries, "diffusion", "preset", default=_DEFAULTS["diffusion_preset"])
    if dpreset not in DIFFUSION_PARAMS:
        raise ConfigError(f"unknown diffusion preset '{dpreset}'", key="preset", line=ln)
    diffusion_params = _take_floats(entries, "diffusion", DIFFUSION_PARAMS[dpreset])

    values = {}
    for row in _KEYS:
        v, ln = _take(entries, row.section, row.key, required=row.field not in _DEFAULTS)
        if v is not None:
            values[row.field] = check_value(row.key, _READ[row.kind](v, row.key, ln), ln)

    # the stencils divide by h^2: a square that underflows or overflows
    # would assemble a singular or infinite operator
    for axis, key in ((1, "x1_max"), (2, "x2_max")):
        lo, hi = domain[2 * axis - 2], domain[2 * axis - 1]
        h = (hi - lo) / (values[f"n{axis}"] + 1)
        if not sys.float_info.min <= h * h < math.inf:
            raise ConfigError(f"grid step h{axis} = {h!r} of the rectangle: h{axis}^2 is not "
                              "a normal float", key=key, line=domain_lines[key])

    # a parameter of another preset of the family is as unknown as a typo
    readers = {"surface": preset, "diffusion": dpreset}
    for (section, key), (_, lineno) in entries.items():
        reader = f": preset '{readers[section]}' does not read it" if section in readers else ""
        raise ConfigError(f"unknown key in [{section}]{reader}", key=key, line=lineno)

    return RunConfig(surface_preset=preset, domain=tuple(domain), surface_params=surface_params,
                     diffusion_preset=dpreset, diffusion_params=diffusion_params, **values)


def serialize_config(cfg):
    """Canonical text form; parse_config(serialize_config(c)) == c."""
    presets = {"surface": cfg.surface_preset, "diffusion": cfg.diffusion_preset}
    params = {"surface": [*zip(_DOMAIN_KEYS, cfg.domain), *cfg.surface_params.items()],
              "diffusion": cfg.diffusion_params.items()}
    blocks = []
    for section in _SECTIONS:
        lines = [f"[{section}]"]
        if section in presets:
            lines.append(f"preset = {presets[section]}")
        for row in _KEYS:
            value = getattr(cfg, row.field)
            if row.section == section and value is not None:
                lines.append(f"{row.key} = {_WRITE[row.kind](value)}")
        lines += [f"{key} = {value!r}" for key, value in params.get(section, ())]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


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
