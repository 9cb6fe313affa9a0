"""Exact arithmetic for h*-polynomials of Delta(0,q) simplices, Eulerian
simplices, Ehrhart products, and sign-pattern realization.

The exports are lazy (PEP 562): `import ehrsign` loads no submodule, and
the first read of an exported name imports the module that defines it
(with that module's own imports) and caches the name here.  So a one-shot
`ehrsign` call pays only for the modules its subcommand runs.  The
submodules are reachable as attributes too, as when this package
imported them all.
"""

import importlib

__version__ = "0.1.0"

# module -> the names it exports through this package
_EXPORTS = {
    "polynomials": ("Poly", "binom_poly", "poly_from_json", "poly_to_json", "poly_to_text"),
    "delta": (
        "DeltaQ",
        "DivisibilityError",
        "HStar",
        "hstar",
        "hstar_family",
        "hstar_fast",
        "hstar_naive",
        "l1_l2",
        "reduce_q",
    ),
    "eulerian": (
        "EulerianS",
        "aleph",
        "aleph_inv",
        "descent_formula",
        "descents",
        "eulerian_descent",
        "eulerian_recurrence",
        "lehmer_decode",
        "lehmer_encode",
        "sdm_ehrhart",
        "sdm_hstar",
    ),
    "oracle": ("DilationCount", "OracleGuardError", "count_points"),
    "ehrhart": (
        "Delta",
        "EhrhartPoly",
        "Interval",
        "PolytopeExpr",
        "Quad",
        "ReeveT",
        "StdSimplex",
        "block_ehrhart",
        "ehr_dilate",
        "ehr_product",
        "expr_ehrhart",
        "expr_from_json",
        "expr_to_json",
        "from_hstar",
        "sign_vector",
    ),
    "signpattern": (
        "ConstructResult",
        "SearchExhausted",
        "construct",
        "construct_case6",
        "decompose_pattern",
        "format_pattern",
        "greedy_params",
        "instantiate",
        "parse_pattern",
        "predict_signs",
        "verify_expr",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it here
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
