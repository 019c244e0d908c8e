"""Exception types shared across the package."""

import math


class DomainError(ValueError):
    """Evaluation point lies outside the parameter rectangle or time horizon."""


class DegenerateChartError(RuntimeError):
    """At some sample point the metric determinant G is non-positive or not finite,
    or another metric field ``name`` (dG/dt) is not finite."""

    def __init__(self, X, t, value, name="G"):
        self.X = tuple(float(x) for x in X)
        self.t = float(t)
        self.value = float(value)
        self.name = name
        why = "<= 0" if math.isfinite(self.value) else "is not finite"
        super().__init__(
            f"degenerate chart: {name} = {self.value:.6g} {why} at X = {self.X}, t = {self.t:.6g}"
        )


class AssumptionViolationError(RuntimeError):
    """A coefficient assumption (positivity of kappa or of kappa*g^aa) fails on the scan."""


class ParameterError(ValueError):
    """An argument is outside its documented range."""


class StepSolveError(RuntimeError):
    """A linear solve inside a time step did not reach the required residual.

    ``solver`` names the method that ran: "LU", "DST-I" or "GMRES", which
    also gives its ``iterations``.
    """

    def __init__(self, step, t, residual, tol, solver, iterations=None):
        self.step = int(step)
        self.t = float(t)
        self.residual = float(residual)
        self.solver = solver
        self.iterations = iterations
        how = f"by {solver}" if iterations is None else f"after {iterations} {solver} iterations"
        super().__init__(
            f"step {step} at t = {t:.6g} reached relative residual {residual:.3e} "
            f"> {tol:.1e} {how}"
        )


class PicardDivergenceError(RuntimeError):
    """The fixed-point iteration hit max_iter without contracting."""


class ConfigError(ValueError):
    """Configuration file is malformed or fails validation."""

    def __init__(self, message, key=None, line=None):
        self.key = key
        self.line = line
        where = []
        if key is not None:
            where.append(f"key '{key}'")
        if line is not None:
            where.append(f"line {line}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
