"""Built-in test problems used by the self test and the verification suite."""

from __future__ import annotations

from .fp import ProblemSpec
from .problems import ProblemFile


def plane_problem(p: int = 2) -> ProblemSpec:
    """F_p[X, Y] standard graded, I = (X, Y)."""
    return ProblemFile(p, ("X", "Y"), (1, 1), (), ("X", "Y")).to_problem()


def parameter_problem(a: int = 2, b: int = 3, p: int = 2) -> ProblemSpec:
    """F_p[X, Y] standard graded, I = (X^a, Y^b)."""
    return ProblemFile(p, ("X", "Y"), (1, 1), (), (f"X^{a}", f"Y^{b}")).to_problem()


def three_generator_problem(p: int = 2) -> ProblemSpec:
    """F_p[X, Y] standard graded, I = (X^2, XY, Y^3)."""
    return ProblemFile(p, ("X", "Y"), (1, 1), (), ("X^2", "X*Y", "Y^3")).to_problem()


def cusp_problem(p: int = 2) -> ProblemSpec:
    """F_p[X, Y] / (Y^2 - X^3) with weights (2, 3), I = (X): dimension one."""
    return ProblemFile(p, ("X", "Y"), (2, 3), ("Y^2 - X^3",), ("X",)).to_problem()


def cusp3_problem() -> ProblemSpec:
    """problems/cusp3.json: F_3[X, Y] / (Y^2 - X^3) with weights (2, 3), I = (X^3 + Y^2)."""
    return ProblemFile(3, ("X", "Y"), (2, 3), ("Y^2 - X^3",), ("X^3 + Y^2",)).to_problem()


def weighted_plane_problem(p: int = 2) -> ProblemSpec:
    """F_p[X, Y] with weights (2, 3), I = (X, Y)."""
    return ProblemFile(p, ("X", "Y"), (2, 3), (), ("X", "Y")).to_problem()


def standard_problems() -> dict:
    """The named problems exercised by the self test, with parameter degrees.

    Values are (problem, hsop_degrees) where hsop_degrees are the degrees of
    a homogeneous system of parameters of the ring (used by the Betti and
    Cohen-Macaulay checks).
    """
    return {
        "plane": (plane_problem(), (1, 1)),
        "parameter23": (parameter_problem(2, 3), (1, 1)),
        "three_generator": (three_generator_problem(), (1, 1)),
        "cusp": (cusp_problem(), (2,)),
        "weighted_plane": (weighted_plane_problem(), (2, 3)),
    }
