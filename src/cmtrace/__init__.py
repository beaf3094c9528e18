"""Heegner traces between split and non-split Cartan level structures.

Exact finite-group layer (Cartan subgroups of GL_2(F_p), class groups of
imaginary quadratic orders, optimal embeddings and coset fibers) together
with an arbitrary-precision analytic layer (q-expansions, period lattices,
Atkin-Lehner signs, algebraic recognition) and end-to-end trace experiments.
"""

from .curves import Curve, CurveModel, an_coefficients, conductor, curve_model, minimal_model
from .embeddings import (EmbeddingData, build_embedding, find_common_norm_element,
                         lemma_converse_check, signo_pairing_check, two_to_one_check,
                         verify_optimal)
from .errors import CmtraceError, InputError
from .experiments import (ExperimentSpec, FiniteReport, TraceReport,
                          experiment_finite, trace_point)
from .fp import ArithmeticBoundError, index_ns_plus
from .heegner import HeegnerTau, NoHeegnerPoint, galois_orbit, heegner_form
from .modparam import atkin_lehner_sign, eval_phi
from .periods import PeriodLattice, elliptic_exp, is_torsion, period_lattice
from .quadforms import (BinaryForm, QuadOrder, class_number, kernel_classes, order_data,
                        reduce_form, reduced_forms)
from .recognize import AlgebraicNumber, recognize_in_quadratic, recognize_rational

__version__ = "0.1.0"
