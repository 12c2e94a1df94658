"""syndetic: finite-window largeness scales, van der Waerden search, and
verifiable AP-abundance certificates over Z and Z^2.

The package surface is lazy: ``import syndetic`` loads no submodule, and
each exported name imports its module on first use (PEP 562), so a caller
of the pure-Python vdW search never loads numpy.  ``KINDS`` is defined
here, where the CLI's parser reads it without loading the generators.
"""

from importlib import import_module as _import

KINDS = ("periodic", "thick-blocks", "ps-striped", "random-sparse")

# every other export, by the submodule it is read from on first use
_EXPORTS = {
    name: module
    for module, names in {
        "certificate": (
            "CertificateError", "CertificateParseError", "DigestMismatchError",
            "FgCertificate", "RefusalError", "Verdict", "parse", "serialize",
            "set_digest", "verify_fg",
        ),
        "generators": (
            "gen_example", "periodic_set", "random_sparse_set", "striped_set",
            "thick_blocks_set",
        ),
        "pipeline": (
            "AffineMap2D", "APPair", "ColorTriple", "ConstructionError", "PairSet",
            "PartitionError", "PartitionWitness", "PhiSearchError",
            "ScalePreconditionError", "affine_image", "color_classes", "fg_construct",
            "find_nontrivial_ap", "partition_extract", "pigeonhole_extract",
            "progression_pairs",
        ),
        "textio": ("SetFormatError", "dump_window1d", "load_window1d"),
        "vdw": (
            "DEFAULT_BUDGET", "APIndex", "BudgetExhaustedError", "Coloring", "MonoAP",
            "SpanResult", "VdwResult", "dump_coloring", "dump_vdw_result",
            "find_mono_ap", "vdw_number", "vdw_span",
        ),
        "windows": (
            "PSWitness1D", "Scale", "WindowError", "WindowSet1D", "WindowSet2D",
            "contains_interval", "is_ps_at_scale", "max_run_length", "ps_scale_1d",
            "ps_scale_2d", "shifted_union_1d", "shifted_union_2d",
        ),
    }.items()
    for name in names
}
_SUBMODULES = tuple(dict.fromkeys(_EXPORTS.values()))

__all__ = ["KINDS", *_EXPORTS, *_SUBMODULES]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it on the package
        return _import(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
