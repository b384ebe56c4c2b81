"""charmax: maximal single-valued extension domains for first-order
quasi-linear Cauchy problems.

The pipeline: parse a problem (coefficients, initial data, box), take
first integrals of the characteristic vector field, compose the implicit
solution F = f o rho vanishing on the initial set, discretize {F = 0},
cut out the singular locus {F_u = 0}, flood-fill the component of the
initial set, and project it to base space.  Point queries continue the
solution branch by predictor-corrector Newton instead of trusting the
grid.
"""

from .conslaw import ConservationLaw, blowup_time, envelope, singular_time
from .domain import MaximalDomain, Verdict, contains, maximal_domain
from .expr import Expr, diff, evaluate, parse, to_str
from .integrals import (FirstIntegralSet, ImplicitSolution,
                        build_implicit_solution, conservation_law_integrals,
                        implicit_solution_for_problem, verify_first_integral)
from .locus import (LevelSurface, SingularLocus, extract_singular_locus,
                    extract_surface, split_component)
from .problem import (Box, InitialData, Problem, VectorField,
                      characteristic_field, initial_set_samples,
                      load_problem_bundle)

__version__ = "0.1.0"

__all__ = [
    "Box", "ConservationLaw", "Expr", "FirstIntegralSet", "ImplicitSolution",
    "InitialData", "LevelSurface", "MaximalDomain", "Problem",
    "SingularLocus", "VectorField", "Verdict",
    "blowup_time", "build_implicit_solution", "characteristic_field",
    "conservation_law_integrals", "contains", "diff", "envelope", "evaluate",
    "extract_singular_locus", "extract_surface",
    "implicit_solution_for_problem", "initial_set_samples",
    "load_problem_bundle", "maximal_domain", "parse", "singular_time",
    "split_component", "to_str", "verify_first_integral",
]


def problem_path(name: str):
    """Path of one of the bundled example problem files."""
    from importlib.resources import files
    path = files("charmax").joinpath("data", f"{name}.json")
    return path
