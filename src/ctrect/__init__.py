"""Composition-tableau rectification toolkit.

Validated tableau families on a shared grid carrier, the column-sort
bijection between composition tableaux and reverse semistandard Young
tableaux, jeu-de-taquin rectification with full slide traces, direct k-cell
rectification of composition tableaux, the eviction ordering, evacuation,
Schur and monomial (quasi)symmetric polynomial expansions, and an exhaustive
small-instance verification harness, all exposed through one CLI.

Public names are loaded on first access (PEP 562), so importing the package,
or one of its modules, loads only the modules that are used.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bijection": ("rho", "rho_inv"),
    "ct_rectify": ("eviction", "phi", "phi_steps"),
    "jeu_de_taquin": (
        "ShiftReport",
        "SlideStep",
        "SlideTrace",
        "dominant_path",
        "evacuate",
        "is_diagonally_dominant",
        "rectify_k",
        "rectify_k_steps",
        "replay",
        "shifting_entries",
    ),
    "polynomials": (
        "Polynomial",
        "compositions",
        "enumerate_ct",
        "enumerate_rssyt",
        "enumerate_ssyt",
        "is_quasisymmetric",
        "is_symmetric",
        "monomial_qsym_expand",
        "monomial_sym_expand",
        "parse_polynomial",
        "partitions",
        "render_polynomial",
        "schur_expand",
        "weight_monomial",
    ),
    "tableaux": (
        "CompositionShape",
        "Filling",
        "InvalidTableauError",
        "InvariantViolationError",
        "KINDS",
        "ParseError",
        "PartitionShape",
        "Row",
        "TableauKind",
        "Violation",
        "filling_from_json",
        "filling_to_json",
        "parse_filling",
        "parse_int",
        "render_filling",
        "validate",
        "violations",
    ),
    "verify": ("Counterexample", "PROPERTY_NAMES", "VerifyReport", "run_property"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # Submodule names are not in the map: the AttributeError lets
    # ``from ctrect import verify`` fall back to importing the submodule.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
