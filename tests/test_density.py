import json
import math
import os
from fractions import Fraction

import pytest

from fpfun import fp
from fpfun.cli import main
from fpfun.density import (
    DensityTable,
    density_table,
    direct_fourier,
    gn_fourier_exact,
    quadrature_fourier,
)
from fpfun.errors import EvaluationDomainError, StructureError
from fpfun.fp import ProblemSpec, betti_limit_check, fn_eval, hk_multiplicity
from fpfun.ideals import GradedLengthTable
from fpfun.selfcheck import SelfCheckFailure, check_fourier_bridge, check_frobenius_product

PLANE_FILE = os.path.join(os.path.dirname(__file__), os.pardir, "problems", "plane.json")

GRID = (0.5, 1.0, 2.0, 4.0, -1.5)
TINY = (1e-4, 1e-6, 1e-8, 1e-12, 1e-8 + 1e-8j)


def tent(x):
    return min(x, 2 - x) if 0 <= x <= 2 else 0.0


class TestDensityTable:
    def test_level_zero_origin_value(self, suite_problems):
        for name, (problem, _) in suite_problems.items():
            table = density_table(problem, 0)
            assert table.value_at_index(0) == 1, name

    def test_mass_equals_level_value_exactly(self, suite_problems):
        for name, (problem, _) in suite_problems.items():
            for n in range(4):
                table = density_table(problem, n)
                assert table.mass() == hk_multiplicity(problem, n), (name, n)

    def test_plane_tent_profile(self, plane):
        n = 3
        q = 2 ** n
        table = density_table(plane, n)
        for j in range(2 * q - 1):
            value = table.value_at_index(j)
            assert abs(float(value) - tent(j / q)) <= 2 / q

    def test_step_semantics(self, plane):
        table = density_table(plane, 2)
        assert table.value_at(Fraction(1, 8)) == table.value_at_index(0)
        assert table.value_at(Fraction(1, 4)) == table.value_at_index(1)

    def test_samples_are_exact_rationals(self, cusp):
        table = density_table(cusp, 2)
        for x, g in table.samples():
            assert isinstance(x, Fraction) and isinstance(g, Fraction)
            assert g > 0

    def test_dimension_zero_rejected(self, plane):
        flat = ProblemSpec(plane.ring, plane.ideal, dim_override=0)
        with pytest.raises(EvaluationDomainError):
            density_table(flat, 2)

    def test_view_of_the_level_table(self, parameter23):
        table = density_table(parameter23, 6)
        assert table.table is parameter23.table(6)
        assert table == DensityTable(parameter23.table(6), 2)
        # the phase-sum cache belongs to the length table and is no argument
        with pytest.raises(TypeError):
            GradedLengthTable(6, 2, {}, phase_moments={})
        with pytest.raises(TypeError):
            DensityTable(table.table, 2, phase_moments={})

    @pytest.mark.parametrize("lengths", [{600: 1, 0: 1}, {300: 2, 1: 1, 700: 3}, {3: 1, 0: 1}])
    def test_degrees_out_of_order_refused(self, lengths):
        # accepted, at n = 8 the first makes quadrature_fourier raise
        # IndexError and the second puts it 1.2e-5 off direct_fourier, and
        # at n = 1 the third gives a support right endpoint of 1/2 for 2
        with pytest.raises(StructureError, match="^a length table's degrees must be strictly"):
            GradedLengthTable(8, 2, lengths)

    def test_negative_length_refused_by_the_kernel(self):
        # the kernel's block moments assume non-negative lengths; summed
        # anyway, this table puts quadrature_fourier 1.5e-5 off direct_fourier
        lengths = {j: 1 + j % 5 for j in range(600)}
        lengths[300] = -3
        table = DensityTable(GradedLengthTable(8, 2, lengths), 2)
        assert abs(direct_fourier(table, 0.5)) > 0.01
        with pytest.raises(StructureError, match="^the phase-sum kernel needs non-negative"):
            quadrature_fourier(table, 0.5)

    @pytest.mark.parametrize("lengths", [
        {0.5: 1, 300.5: 1},  # first and last degrees not integers
        {0: 1.5, 300: 1},  # a length not an integer
        {0: 1, 150.5: 2, 300: 1},  # a degree inside the table not an integer
    ])
    def test_non_integer_table_refused_by_the_kernel(self, lengths):
        # a degree that is not an integer has no place in the dense run, so the
        # constructor refuses it; a length is not checked until the kernel's
        # block moments, which need integers, while the direct sum takes any
        if not all(isinstance(j, int) for j in lengths):
            with pytest.raises(StructureError, match="^a length table's degrees must be integers"):
                GradedLengthTable(8, 2, lengths)
            return
        table = DensityTable(GradedLengthTable(8, 2, lengths), 2)
        assert abs(direct_fourier(table, 0.5)) > 0
        with pytest.raises(StructureError, match="^the phase-sum kernel needs integer"):
            quadrature_fourier(table, 0.5)

    def test_support_right_endpoint_bounded(self, suite_problems):
        for name, (problem, _) in suite_problems.items():
            ends = [density_table(problem, n).support_right_endpoint() for n in range(1, 6)]
            bound = max(ends[:2]) * 2
            assert all(e <= bound for e in ends), name


class TestFourierBridge:
    def test_exact_equals_quadrature(self, suite_problems):
        # level 8 is the first at which every suite table reaches the blocks
        for name, (problem, _) in suite_problems.items():
            for n in (*range(4), 8):
                table = density_table(problem, n)
                for y in GRID + TINY:
                    gap = abs(
                        gn_fourier_exact(problem, n, y) - quadrature_fourier(table, y)
                    )
                    assert gap <= 1e-10, (name, n, y)
                    gap = abs(direct_fourier(table, y) - quadrature_fourier(table, y))
                    assert gap <= 1e-10, (name, n, y)

    def test_bridge_at_large_q(self, parameter23):
        # q = 16384: with Im y > 0 the integrand grows like exp(x Im y)
        n = 14
        table = density_table(parameter23, n)
        for y in (0.640625 + 0.734375j, 0.5 + 1j, 1 + 2j):
            gap = abs(gn_fourier_exact(parameter23, n, y) - quadrature_fourier(table, y))
            assert gap <= 1e-10, y
            assert abs(direct_fourier(table, y) - quadrature_fourier(table, y)) <= 1e-10, y

    def test_exact_transform_at_tiny_u(self, suite_problems):
        # (1 - exp(-iu)) / (iu) = sum_k (-iu)^k / (k+1)!, four terms exact to
        # double precision for |u| <= 1e-4
        for name, (problem, _) in suite_problems.items():
            for n in range(1, 4):
                q = problem.prime ** n
                for y in TINY:
                    u = y / q
                    series = sum((-1j * u) ** k / math.factorial(k + 1) for k in range(4))
                    want = fn_eval(problem, n, y) * series
                    got = gn_fourier_exact(problem, n, y)
                    assert abs(got - want) <= 1e-15 * abs(want), (name, n, y)

    def test_zero_agrees_with_level_value(self, suite_problems):
        for name, (problem, _) in suite_problems.items():
            for n in range(3):
                assert gn_fourier_exact(problem, n, 0) == fn_eval(problem, n, 0), name

    def test_tent_mass(self, plane):
        table = density_table(plane, 3)
        assert quadrature_fourier(table, 0) == 1.0 + 0j

    def test_empty_table(self):
        table = DensityTable(GradedLengthTable(1, 2, {}), 2)
        assert quadrature_fourier(table, 0) == 0j
        assert quadrature_fourier(table, 1.0) == 0j

    def test_correction_factor_washes_out(self, plane):
        # as n grows at fixed y the transform approaches the level value
        y = 1.0
        gaps = [
            abs(gn_fourier_exact(plane, n, y) - fn_eval(plane, n, y)) for n in (2, 4, 6, 8)
        ]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-2


class TestWrongKernelIsCaught:
    """Every block sum of the phase-sum kernel scaled by ``scale``: at 1 the
    bridge, the Betti check and the density report pass, at 1.01 each fails,
    because each compares the kernel with the direct per-term sum.  The Betti
    check reads the kernel only over a ring with relations (the cusp); a
    relation-free ring's F_n is a Frobenius product."""

    @pytest.fixture(params=[1.0, 1.01])
    def scale(self, request, monkeypatch):
        value = fp._Moments.value
        monkeypatch.setattr(
            fp._Moments, "value", lambda self, w, delta: request.param * value(self, w, delta)
        )
        return request.param

    @pytest.mark.parametrize("levels", [2, 3])  # a shallow run and the selftest's
    def test_selfcheck_bridge(self, scale, levels):
        if scale == 1:
            assert check_fourier_bridge(levels=levels) > 0
        else:
            with pytest.raises(SelfCheckFailure, match="^Fourier bridge gap"):
                check_fourier_bridge(levels=levels)

    def test_betti_limit_check(self, scale, suite_problems):
        for name, (problem, hsop) in suite_problems.items():
            if not problem.ring.relations:
                continue
            worst = betti_limit_check(problem, hsop, GRID, 8).max_deviation
            assert (worst > 1e-9) == (scale != 1), (name, worst)

    def test_density_report(self, scale, capsys):
        assert main(["density", "--file", PLANE_FILE, "--n", "8", "--format", "json"]) == 0
        gap = json.loads(capsys.readouterr().out)["max_bridge_gap"]
        assert (gap > 1e-10) == (scale != 1), gap

    def test_gn_fourier_exact_against_quadrature(self, scale, parameter23):
        # on a relation-free ring gn_fourier_exact scales the Frobenius
        # product, so its gap from the quadrature is the kernel's error
        table = density_table(parameter23, 14)
        for y in (1.5, 2 + 0.5j, 4.0, -1.5):
            gap = abs(gn_fourier_exact(parameter23, 14, y) - quadrature_fourier(table, y))
            assert (gap > 1e-10) == (scale != 1), (y, gap)


class TestWrongFrobeniusFactorIsCaught:
    """Every Frobenius factor scaled by ``scale``: at 1 the Betti check and
    the product self check pass, at 1.01 each fails, because each compares
    a relation-free ring's F_n with an independent sum."""

    @pytest.fixture(params=[1.0, 1.01])
    def scale(self, request, monkeypatch):
        factor = fp._frobenius_factor
        monkeypatch.setattr(fp, "_frobenius_factor", lambda *args: request.param * factor(*args))
        return request.param

    def test_betti_limit_check(self, scale, parameter23):
        worst = betti_limit_check(parameter23, (1, 1), GRID, 8).max_deviation
        assert (worst > 1e-9) == (scale != 1), worst

    def test_selfcheck_product(self, scale):
        if scale == 1:
            assert check_frobenius_product() > 0
        else:
            with pytest.raises(SelfCheckFailure, match="^Frobenius product off by"):
                check_frobenius_product()


def test_selfcheck_product_below_the_tail_fit():
    # levels 0 and 1 take the direct sum on every suite problem, and
    # fp_limit needs three levels, so only the per-term comparison runs
    assert check_frobenius_product(levels=0) == 4 * 6
    assert check_frobenius_product(levels=1) == 4 * 6 * 2


class TestUniformConvergenceEcho:
    def test_sup_differences_nonincreasing(self, suite_problems):
        # d >= 2 standard graded problems: max |g_{n+1} - g_n| on the fine
        # grid does not increase beyond n = 3
        for name in ("plane", "parameter23", "three_generator"):
            problem, _ = suite_problems[name]
            sups = []
            for n in range(3, 7):
                t_now = density_table(problem, n)
                t_next = density_table(problem, n + 1)
                q_next = t_next.q
                top = max(t_now.support_right_endpoint(), t_next.support_right_endpoint())
                sup = Fraction(0)
                for j in range(int(top * q_next) + 1):
                    x = Fraction(j, q_next)
                    sup = max(sup, abs(t_next.value_at(x) - t_now.value_at(x)))
                sups.append(sup)
            assert all(b <= a for a, b in zip(sups, sups[1:])), (name, sups)
