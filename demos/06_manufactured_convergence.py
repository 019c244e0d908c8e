"""Manufactured-solution convergence studies.

A prescribed exact solution induces a forcing F = du/dt + L u, evaluated
numerically from the chart's metric partials; the discrete errors then
measure pure discretization quality.  The solutions here are sympy
expressions: ``manufactured_solution`` differentiates them once (sympy is
needed only for that; the ``mms`` CLI subcommand uses closed-form partials).  Expected: second order in h (5-point flux stencil)
and in dt (trapezoid scheme); first order in dt for the fully implicit
scheme.
"""

from evolvesurf import make_chart, make_diffusion, manufactured_solution, mms_convergence


def smooth(X1, X2, t):
    import sympy as sp
    return sp.exp(-t) * sp.sin(sp.pi * X1) * sp.sin(sp.pi * X2)


def bubble(X1, X2, t):
    # per-direction cubic: the 5-point stencil is exact on it, which isolates
    # the temporal error
    import sympy as sp
    return (sp.exp(-t) * (1 + sp.Rational(1, 2) * sp.sin(8 * t))
            * X1 * (1 - X1) * X2 * (1 - X2))


kappa = make_diffusion("constant", value=1.0)


def show(tag, table):
    print(f"=== {tag} ===")
    print(f"{'h':>10} {'dt':>9} {'err_max':>11} {'err_l2':>11}")
    for row in table.rows:
        print(f"{row['h']:10.5f} {row['dt']:9.5f} {row['err_max']:11.3e} {row['err_l2']:11.3e}")
    print(f"fitted orders: space = {table.order_space:.3f}, time = {table.order_time:.3f}\n")


flat = make_chart("flat_static", horizon=1.0)
show("flat patch, space sweep (dt fixed small)",
     mms_convergence(flat, kappa, manufactured_solution(smooth),
                     [(15, 2.5e-4), (31, 2.5e-4), (63, 2.5e-4)], T=0.05))

show("flat patch, time sweep (stencil-exact bubble solution)",
     mms_convergence(flat, kappa, manufactured_solution(bubble),
                     [(31, 0.02), (31, 0.01), (31, 0.005)], T=0.2))

show("flat patch, time sweep with the fully implicit scheme (order 1)",
     mms_convergence(flat, kappa, manufactured_solution(bubble),
                     [(31, 0.02), (31, 0.01), (31, 0.005)], T=0.2, theta=1.0))

graph = make_chart("graph_oscillation", horizon=1.0, epsilon=0.05, omega=1.0)
show("oscillating graph, joint (h, dt) refinement",
     mms_convergence(graph, kappa, manufactured_solution(smooth),
                     [(7, 8e-3), (15, 4e-3), (31, 2e-3)], T=0.1))

kvar = make_diffusion("sinusoidal", base=1.0, amp=0.3)
show("oscillating graph + variable diffusivity, joint refinement",
     mms_convergence(graph, kvar, manufactured_solution(smooth),
                     [(7, 8e-3), (15, 4e-3), (31, 2e-3)], T=0.1))
