"""slicegate: exact knot concordance invariants and 4-genus obstruction reports."""

# each public name loads its submodule on first access (PEP 562), so `import slicegate`,
# which `python -m slicegate.cli` runs first, loads none
_EXPORTS = {
    "bounds": "GenusBounds Interval",
    "laurent": "FoxMilnorResult InvalidAlexanderError LaurentPoly factor fox_milnor normalize",
    "knotdb": "KnotRecord KnotStore ingest_csv load save seed_table whitehead_double_record",
    "obstruct": "AppliedRule InconsistentBoundsError ObstructionReport Verdict aggregate yasuhara",
    "plfunc": "CobordismCheck PLFunction cable_sandwich cobordism_inequality euler_number_range "
              "g4_lower_bound oss_gamma4_lower_bound two_q_upsilon_interval upsilon_little",
    "seifert": "NotASeifertMatrixError SeifertMatrix alexander arf arf_murasugi determinant "
               "levine_tristram signature",
    "whitehead": "CompanionInvariants InvariantClashError MissingInvariantError WhiteheadParams "
                 "cable_target epsilon_whitehead gamma4_whitehead seifert_matrix tau_whitehead "
                 "upsilon_whitehead",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # nothing is cached here, so each access reads the submodule's current binding; a
    # submodule name gives the submodule, as when this file imported them all
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    submodule = __import__(f"{__name__}.{module}", fromlist=[name])  # -X importtime lists it
    return submodule if module == name else getattr(submodule, name)


def __dir__():
    return sorted({*globals(), *__all__})
