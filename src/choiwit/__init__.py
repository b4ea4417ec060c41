"""Qutrit entanglement witnesses from a three-parameter map family,
with numeric span certificates of optimality over the one-parameter slice.

Each public name is read from its defining module on access (PEP 562), so
``import choiwit`` alone loads no submodule and no numpy.
"""

import importlib

__version__ = "0.1.0"

#: The public names, by the module that defines them.
_PUBLIC = {
    "errors": ("BoundaryCaseError", "ChoiwitError", "InvalidStateError", "NonpositiveTError",
               "NotHermitianError", "OffFamilyError", "OutOfRangeError"),
    "linalg": ("conj_vec", "expectation", "herm_eig_min", "kron_vec", "lu_det",
               "partial_transpose_second", "rank_with_tol"),
    "maps": ("FamilyPoint", "MapParams", "PositivitySearchResult", "family_from_alpha", "family_violation",
             "identity_residuals", "is_positive_predicate", "on_family_check", "phi_apply",
             "positivity_search", "t_param"),
    "optimality": ("Certificate", "CertificateDiagnostics", "ProductVectorPair", "SpanMatrix", "Verdict",
                   "ZeroExpectations", "certify", "certify_many", "det_closed_form", "ppt_state",
                   "product_vectors", "span_matrix", "zero_expectation_check"),
    "witness": ("DensityMatrix", "WitnessMatrix", "detect", "max_ent_projector", "parse_state_file",
                "parse_state_text", "separable_sample_check", "state_file_text", "witness_from_map",
                "witness_matrix"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """The public name from its module, looked up on every access: a patch to the module shows here."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
