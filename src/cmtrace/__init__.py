"""Heegner traces between split and non-split Cartan level structures.

Exact finite-group layer (Cartan subgroups of GL_2(F_p), class groups of
imaginary quadratic orders, optimal embeddings and coset fibers) together
with an arbitrary-precision analytic layer (q-expansions, period lattices,
Atkin-Lehner signs, algebraic recognition) and end-to-end trace experiments.

Importing the package loads the finite layer only: errors, fp (with the
orders), embeddings and finite.  The binary forms, the curve names and the
analytic names and submodules below each resolve on first use (PEP 562), so
a finite-only process never compiles quadforms or curves and never loads
mpmath.
"""

import importlib

from .embeddings import (EmbeddingData, build_embedding, find_common_norm_element,
                         lemma_converse_check, signo_pairing_check, two_to_one_check,
                         verify_optimal)
from .errors import CmtraceError, InputError
from .finite import ExperimentSpec, FiniteReport, experiment_finite
from .fp import ArithmeticBoundError, QuadOrder, index_ns_plus, order_data

__version__ = "0.1.0"

# name -> the submodule that defines it; a submodule's own name maps to itself
_LAZY = {name: module for module, names in (
    ("curves", ("Curve", "CurveModel", "an_coefficients", "conductor", "curve_model",
                "minimal_model")),
    ("experiments", ("TraceReport", "trace_point")),
    ("heegner", ("NoHeegnerPoint", "galois_orbit", "heegner_form")),
    ("modparam", ("atkin_lehner_sign", "eval_phi")),
    ("periods", ("PeriodLattice", "elliptic_exp", "is_torsion", "locate", "period_lattice")),
    ("quadforms", ("BinaryForm", "class_number", "kernel_classes", "reduce_form",
                   "reduced_forms")),
    ("recognize", ("AlgebraicNumber", "recognize_in_quadratic", "recognize_rational")),
    ("cli", ()),
) for name in (module, *names)}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY})
