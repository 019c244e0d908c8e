import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from evolvesurf import make_chart, make_diffusion, make_grid


def pytest_configure(config):
    """Hypothesis caches the constants of local source files in its home
    directory, ``.hypothesis/`` under the working directory by default; keep
    that cache in the temporary directory instead of the working tree."""
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:
        return
    set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "evolvesurf-hypothesis")


@pytest.fixture
def unit_grid():
    return make_grid((0.0, 1.0, 0.0, 1.0), 16, 16)


@pytest.fixture
def flat():
    return make_chart("flat_static", horizon=1.0)


@pytest.fixture
def iso():
    return make_chart("isotropic_scaling", horizon=1.0, gamma=1.0)


@pytest.fixture
def graph():
    return make_chart("graph_oscillation", horizon=3.0, epsilon=0.05, omega=1.0)


@pytest.fixture
def const_kappa():
    return make_diffusion("constant", value=1.0)


@pytest.fixture
def eigenmode():
    def build(grid):
        X1, X2 = grid.interior_mesh()
        return (np.sin(np.pi * X1) * np.sin(np.pi * X2)).ravel()
    return build


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) -> list that collects the positional arguments
    of every call to that function, at every binding site in the package."""
    def install(module, name):
        original = getattr(module, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("evolvesurf"):
                continue
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    monkeypatch.setattr(mod, attr, counting)
        return calls

    return install
