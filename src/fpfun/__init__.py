"""Frobenius-Poincare functions of graded rings over prime fields.

Exact graded length tables of Frobenius-power quotients, the normalized
Hilbert-series sequence and its entire-function limit, Hilbert-Kunz
multiplicities, closed-form exponential-polynomial models, and Hilbert-Kunz
density samples with their Fourier transforms.
"""

from .algebra import (
    Grading,
    Polynomial,
    PrimeField,
    format_polynomial,
    monomial_lcm,
    normal_form,
    parse_polynomial,
    weighted_degree,
)
from .density import DensityTable, density_table, gn_fourier_exact, quadrature_fourier
from .errors import (
    ColengthError,
    EvaluationDomainError,
    InexactDivisionError,
    ModelConstructionError,
    ParseError,
    StructureError,
)
from .fp import (
    BettiCheckReport,
    LimitEstimate,
    ProblemSpec,
    betti_alternating_polynomial,
    betti_limit_check,
    cm_chi_eval,
    fn_eval,
    fp_limit,
    hk_multiplicity,
    series_coefficient_estimate,
)
from .hilbert import (
    HilbertSeries,
    LaurentPolynomialZ,
    chi_series,
    hilbert_samuel,
    series_of_ring,
    series_of_table,
)
from .ideals import (
    GradedLengthTable,
    GroebnerBasis,
    HomogeneousIdeal,
    MonomialIdeal,
    RingPresentation,
    bracket_power,
    buchberger,
    enumeration_oracle,
    graded_lengths,
    initial_ideal,
    macaulay_rank_oracle,
)
from .models import (
    ExponentialPolynomialModel,
    HNData,
    eval_model,
    model_dim_one,
    model_finite_pd,
    model_from_hn,
    model_hsop,
    models_equal,
)

__version__ = "0.1.0"

__all__ = [
    "BettiCheckReport",
    "ColengthError",
    "DensityTable",
    "EvaluationDomainError",
    "ExponentialPolynomialModel",
    "GradedLengthTable",
    "Grading",
    "GroebnerBasis",
    "HNData",
    "HilbertSeries",
    "HomogeneousIdeal",
    "InexactDivisionError",
    "LaurentPolynomialZ",
    "LimitEstimate",
    "ModelConstructionError",
    "MonomialIdeal",
    "ParseError",
    "Polynomial",
    "PrimeField",
    "ProblemSpec",
    "RingPresentation",
    "StructureError",
    "betti_alternating_polynomial",
    "betti_limit_check",
    "bracket_power",
    "buchberger",
    "chi_series",
    "cm_chi_eval",
    "density_table",
    "enumeration_oracle",
    "eval_model",
    "fn_eval",
    "format_polynomial",
    "fp_limit",
    "gn_fourier_exact",
    "graded_lengths",
    "hilbert_samuel",
    "hk_multiplicity",
    "initial_ideal",
    "macaulay_rank_oracle",
    "model_dim_one",
    "model_finite_pd",
    "model_from_hn",
    "model_hsop",
    "models_equal",
    "monomial_lcm",
    "normal_form",
    "parse_polynomial",
    "quadrature_fourier",
    "series_coefficient_estimate",
    "series_of_ring",
    "series_of_table",
    "weighted_degree",
]
