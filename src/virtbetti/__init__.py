"""Virtual Betti numbers and mod-2 homology for combinatorial models of
real algebraic varieties: exact GF(2) linear algebra, simplicial
(co)homology, scissor-calculus evaluation, Mayer-Vietoris spectral
sequences, and weight-filtration arithmetic.

The namespace is lazy: ``import virtbetti`` loads no submodule.  Each name
in ``__all__`` is looked up in its home module, per ``_HOMES``, whenever it
is read, and the first read imports that module, so ``import
virtbetti.simplicial`` loads only ``errors``, ``gf2`` and ``simplicial``.
Nothing is cached here: the package hands out whatever its home module
holds at that moment, a monkeypatched function included.

The value types that loaders and engines share live apart from the
engines: ``Arrangement`` in ``cover`` and ``WeightArray`` and
``WeightSystemInput`` in ``triangle``.  So loading a scene file, or
running ``betti`` or ``vbetti`` on one, imports neither the
Mayer-Vietoris engine (``spectral``) nor the weight search (``weights``),
and ``spectral`` imports no ``weights``.
"""

import importlib

__version__ = "0.1.0"

# home module: the public names it exports through the package
_HOMES = {
    "errors": ("VirtBettiError", "Verdict"),
    "gf2": ("GF2Matrix", "rank"),
    "polynomial": ("IntPolynomial", "NEG_INFINITY", "parse_polynomial"),
    "simplicial": ("BettiVector", "PairSpace", "SimplicialComplex", "Subcomplex",
                   "product_complex"),
    "scissor": ("Atom", "Blowup", "ClosedDifference", "DisjointUnion", "Empty", "Product",
                "check_blowup_relation", "degree_report", "evaluate_beta", "evaluate_chi_c"),
    "stratified": ("CompactModel", "DeclaredBeta", "OpenModel", "StratifiedSpec",
                   "StratumRecord", "beta_of_stratified", "beta_of_stratum",
                   "inclusion_exclusion", "refinement_check"),
    "cover": ("Arrangement",),
    "spectral": ("MVSpectralSequence", "row_alternating_sums"),
    "triangle": ("WeightArray", "WeightSystemInput"),
    "weights": ("LinearConstraint", "constraint_filter", "solve_weight_system"),
    "scene": ("Scene", "load_scene", "dump_scene", "scene_from_dict", "scene_to_dict"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
