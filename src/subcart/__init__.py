"""Flows, orbits, strata, brackets and torsion on subsets of R^n.

The package works with spaces presented as finite unions of constraint
cells in an ambient R^n, tangent fields with symbolic expression
components, and a guard-aware adaptive integrator whose exit detection
distinguishes attained from open interval endpoints.  On top of that
sit the orbit sampler for finite field families, stratification audits,
Poisson brackets with invariant-based reduction, and almost complex
torsion residuals.

The exports are lazy (PEP 562): ``import subcart`` imports no submodule,
and a name, or a submodule such as ``subcart.flow``, is imported on its
first use.  So ``import subcart.expr`` loads no other module.

No module imports numpy, and no command needs it: constraints are
evaluated in IEEE arithmetic by generated code on Python floats, an
overflow included, ranks, singular values, eigenvalues and distances
are Jacobi rotations, Gram-Schmidt, eliminations and pairwise sums on
Python floats, and the reduction's table is exact.  Every point the
package hands back is a list of Python floats, ``flow_map``'s image
among them, and the chart's Jacobians and ``matrix_at``'s values are
lists of rows of Python floats.
"""

from __future__ import annotations

import importlib

# submodule -> the names it exports at the package level
_EXPORTS = {
    "almostcomplex": (
        "AlmostComplexError", "AlmostComplexStructure", "KahlerReport", "cauchy_riemann_residual",
        "eigenspace_closure_field", "kahler_check", "tensoriality_residual", "torsion", "torsion_residual",
    ),
    "cli": (),
    "expr": (
        "Const", "DomainError", "Expr", "ExprError", "ParseError", "Var", "compile_scalar",
        "compile_vector", "diff", "parse", "to_text",
    ),
    "field": ("FieldError", "TangentField", "lie_bracket"),
    "flow": (
        "ExitWitness", "FlowDomainError", "FlowOptions", "INCONCLUSIVE", "IntegralCurve",
        "IntegrationError", "NOT_VECTOR_FIELD", "ProbeOptions", "VECTOR_FIELD",
        "VectorFieldVerdict", "classify_vector_field", "flow_map", "integrate", "transport_vector",
    ),
    "orbit": (
        "Chart", "CompletenessReport", "DependentBasisError", "DimensionReport", "FieldFamily",
        "OrbitError", "OrbitSample", "ReachError", "chart_jacobian", "dimension_constancy_report",
        "local_completeness_probe", "reach", "sample_orbit",
    ),
    "poisson": (
        "InvarianceReport", "PoissonError", "PoissonStructure", "ReductionError", "ReductionSetup",
        "bracket", "hamiltonian_field", "invariance_residual", "jacobi_residual",
        "jacobi_sample_residual", "leaf_sample", "reduce",
    ),
    "report": (),
    "space": ("Constraint", "Rel", "SpaceError", "SubcartesianSpace", "project_to_equalities", "sample"),
    "strata": (
        "FrontierReport", "StrataError", "StratifiedSpace", "Stratum", "frontier_check",
        "orbit_vs_strata", "strongly_stratified_check",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
