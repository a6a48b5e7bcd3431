"""Exact arithmetic toolkit for piecewise-affine interval map dynamics."""

from .maps import (AffinePiece, BudgetError, BugError, MapInvariantError,
                   MapSyntaxError, MINUS, PLUS, PieceLimitError, PiecewiseMap,
                   PowerLimitError, PwdynError, SpecialPoints, compose,
                   parse_map, parse_rational)
from .orbits import (Germ, GermOrbit, GermStepResult, OrbitResult,
                     PeriodicOrbit, StructureGraph, VariantSelector,
                     germ_orbit, germ_step, orbit, periodic_points, structure,
                     variants)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
