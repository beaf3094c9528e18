"""The closed-form finite layer against the exhaustive oracles in oracles.py."""

import pytest
from sympy import primerange

from cmtrace.embeddings import build_embedding, coset_label
from cmtrace.experiments import ExperimentSpec, experiment_finite
from cmtrace.fp import FpParams, kronecker
from cmtrace.quadforms import is_fundamental_discriminant, kernel_classes, order_data
from oracles import (decompose_gamma, enumerate_cartan, kernel_forms_by_filter,
                     sl2_elements, sorted_min_label)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_coset_label_matches_sorted_min_on_sl2(p):
    for g in sl2_elements(p):
        assert coset_label(g) == sorted_min_label(g), g


@pytest.mark.parametrize("p,dK", [(3, -7), (5, -7), (7, -11), (11, -67), (13, -7)])
def test_coset_label_of_cartan_element_matches_decomposition(p, dK):
    # two_to_one_check labels r_bar directly; the old route labelled the
    # SL_2 factor gamma_i of r_bar = gamma_i * r_s
    params = FpParams(p)
    emb = build_embedding(params, order_data(dK, 1))
    for r_bar in enumerate_cartan(params, "ns"):
        gamma_i = decompose_gamma(emb, r_bar).gamma_i
        assert coset_label(r_bar) == coset_label(gamma_i) == sorted_min_label(gamma_i)


def _inert_cases():
    small = [(dK, p, f)
             for dK in range(-120, -6) if is_fundamental_discriminant(dK)
             for p in primerange(3, 32) if kronecker(dK, p) == -1
             for f in (1, 2)]
    return small + [(-11, 101, 1), (-7, 199, 2)]


def test_generator_kernel_matches_reduced_forms_filter():
    cases = _inert_cases()
    assert len(cases) > 300
    for dK, p, f in cases:
        order = order_data(dK, f)
        kernel = kernel_classes(order, p)
        assert len(kernel) == p + 1
        assert {kc.form for kc in kernel.classes} == kernel_forms_by_filter(order, p), (dK, p, f)


def test_experiment_finite_beyond_enumeration_bound():
    report = experiment_finite(ExperimentSpec(dK=-11, f=1, p=211, mode="finite_only"))
    assert report.all_passed
    assert report.fiber_count == report.degree == 106
