"""Problem files: the JSON schema consumed by the CLI.

A problem file declares the prime, the weighted variables, optional
homogeneous relations, the ideal generators (polynomial strings in the text
grammar), and options:

    {
      "prime": 2,
      "variables": [{"name": "X", "degree": 1}, {"name": "Y", "degree": 1}],
      "relations": [],
      "ideal": ["X", "Y"],
      "options": {"n_max": 10,
                  "y_grid": {"re_min": 0.5, "re_max": 4.0, "count": 8},
                  "dim_override": null}
    }

y_grid may instead be an explicit list of points, each a number, an [re, im]
pair, or an {"re": ..., "im": ...} object.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass

from .algebra import Grading, Polynomial, PrimeField, is_prime, parse_polynomial
from .errors import ParseError
from .fp import ProblemSpec
from .ideals import HomogeneousIdeal, RingPresentation

_DEFAULT_Y_GRID = (0.5 + 0j, 1 + 0j, 2 + 0j, 4 + 0j)

# Largest y grid accepted, in points; a larger one is refused before it is built.
MAX_GRID_POINTS = 100_000


@dataclass
class ProblemFile:
    """A parsed problem file, not yet turned into algebra objects."""

    prime: int
    variable_names: tuple
    variable_degrees: tuple
    relations: tuple = ()
    ideal: tuple = ()
    n_max: int = 6
    y_grid: tuple = _DEFAULT_Y_GRID
    dim_override: int | None = None
    hn: dict | None = None

    def to_problem(self) -> ProblemSpec:
        field_ = PrimeField(self.prime)
        grading = Grading(self.variable_degrees)
        names = self.variable_names
        relations = [
            _parse_named(raw, f"relations[{i}]", names, field_, grading)
            for i, raw in enumerate(self.relations)
        ]
        generators = [
            _parse_named(raw, f"ideal[{i}]", names, field_, grading)
            for i, raw in enumerate(self.ideal)
        ]
        ring = RingPresentation(field_, grading, tuple(relations), names)
        ideal = HomogeneousIdeal(tuple(generators))
        return ProblemSpec(ring, ideal, dim_override=self.dim_override)


def _parse_named(raw, where: str, names, field_, grading) -> Polynomial:
    if not isinstance(raw, str):
        raise ParseError(f"{where}: polynomial must be a string, got {type(raw).__name__}")
    try:
        return parse_polynomial(raw, names, field_, grading)
    except ParseError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def parse_y_grid(value) -> tuple:
    """Accept {re_min, re_max, count} or an explicit list of points.

    Every point must be finite: an infinite or NaN coordinate is a ParseError.
    """
    points = _grid_points(value)
    for y in points:
        if not cmath.isfinite(y):
            raise ParseError(f"y_grid point {y} is not finite")
    return points


def _grid_points(value) -> tuple:
    if value is None:
        return _DEFAULT_Y_GRID
    if isinstance(value, dict):
        try:
            lo = _real(value["re_min"])
            hi = _real(value["re_max"])
            count = value["count"]
            if not _is_int(count):
                raise TypeError(f"{count!r} is not an integer")
        except (KeyError, TypeError, OverflowError) as exc:
            raise ParseError(f"y_grid object needs numeric re_min, re_max, integer count: {exc}")
        if count < 0:
            raise ParseError("y_grid count must be non-negative")
        _check_grid_size(count)
        if count == 1:
            return (complex(lo, 0.0),)
        step = (hi - lo) / (count - 1)
        return tuple(complex(lo + k * step, 0.0) for k in range(count))
    if isinstance(value, (list, tuple)):
        _check_grid_size(len(value))
        points = []
        for item in value:
            if isinstance(item, dict):
                coords = (item.get("re", 0.0), item.get("im", 0.0))
            elif isinstance(item, (list, tuple)) and len(item) == 2:
                coords = item
            elif isinstance(item, (int, float)):
                coords = (item, 0.0)
            else:
                raise ParseError(f"cannot read y_grid point {item!r}")
            try:
                points.append(complex(_real(coords[0]), _real(coords[1])))
            except (TypeError, ValueError, OverflowError):
                raise ParseError(f"cannot read y_grid point {item!r}") from None
        return tuple(points)
    raise ParseError(f"cannot read y_grid value {value!r}")


def _real(value) -> float:
    """A JSON number as a float; a string or a boolean is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _is_int(value) -> bool:
    """Whether value is a JSON integer; booleans are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_grid_size(count: int) -> None:
    if count > MAX_GRID_POINTS:
        raise ParseError(f"y_grid has {count} points; at most {MAX_GRID_POINTS} are allowed")


def load_problem_file(path: str) -> ProblemFile:
    """Parse and validate a problem file; JSON errors keep their line numbers."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read problem file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    except ValueError as exc:  # bytes that are not UTF-8, or an integer too long to read
        raise ParseError(f"cannot read problem file {path}: {exc}")
    return problem_file_from_dict(data, origin=path)


def problem_file_from_dict(data, origin: str = "<memory>") -> ProblemFile:
    if not isinstance(data, dict):
        raise ParseError(f"{origin}: problem file must be a JSON object")
    try:
        prime = data["prime"]
        variables = data["variables"]
        ideal = data["ideal"]
    except KeyError as exc:
        raise ParseError(f"{origin}: missing required key {exc}")
    if not isinstance(prime, int) or not is_prime(prime):
        raise ParseError(
            f"{origin}: 'prime' must be a prime integer below 3317044064679887385961981, "
            f"got {prime!r}"
        )
    if not isinstance(variables, list) or not variables:
        raise ParseError(f"{origin}: 'variables' must be a nonempty list")
    names = []
    degrees = []
    for i, v in enumerate(variables):
        if not isinstance(v, dict) or "name" not in v or "degree" not in v:
            raise ParseError(f"{origin}: variables[{i}] needs 'name' and 'degree'")
        name = v["name"]
        degree = v["degree"]
        if not isinstance(name, str) or not name:
            raise ParseError(f"{origin}: variables[{i}].name must be a nonempty string")
        if not _is_int(degree) or degree < 1:
            raise ParseError(f"{origin}: variables[{i}].degree must be a positive integer")
        names.append(name)
        degrees.append(degree)
    if len(set(names)) != len(names):
        raise ParseError(f"{origin}: duplicate variable names")
    relations = data.get("relations", [])
    if not isinstance(relations, list):
        raise ParseError(f"{origin}: 'relations' must be a list of polynomial strings")
    if not isinstance(ideal, list) or not ideal:
        raise ParseError(f"{origin}: 'ideal' must be a nonempty list of polynomial strings")
    options = data.get("options", {}) or {}
    if not isinstance(options, dict):
        raise ParseError(f"{origin}: 'options' must be an object")
    n_max = options.get("n_max", 6)
    if not _is_int(n_max) or n_max < 0:
        raise ParseError(f"{origin}: options.n_max must be a non-negative integer")
    dim_override = options.get("dim_override")
    if dim_override is not None and (not _is_int(dim_override) or dim_override < 0):
        raise ParseError(f"{origin}: options.dim_override must be a non-negative integer or null")
    y_grid = parse_y_grid(options.get("y_grid"))
    hn = options.get("hn")
    if hn is not None and not isinstance(hn, dict):
        raise ParseError(f"{origin}: options.hn must be an object")
    return ProblemFile(
        prime=prime,
        variable_names=tuple(names),
        variable_degrees=tuple(degrees),
        relations=tuple(relations),
        ideal=tuple(ideal),
        n_max=n_max,
        y_grid=y_grid,
        dim_override=dim_override,
        hn=hn,
    )
