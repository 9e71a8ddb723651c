"""The stacked multi-jet: one jet whose parts carry a leading subsystem axis.

Its parts, views, flattening and arithmetic, and the fragmentation
functions that read its parts directly, checked bit for bit against the
list-based code they replace (copied below as the oracle).
"""

import numpy as np
import pytest

from cvpert import DiscreteMeasure, Jet, MultiJet
from cvpert.errors import ShapeError
from cvpert.fragmentation import (FluctuationForm, FragmentationAnsatz, FragmentedMeasure,
                                  apply_increment, fragment_measure, split_mean_fluct)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def random_jets(rng, L, n, m, scalars=True):
    return [Jet(rng.normal(size=n) if scalars else np.zeros(n), rng.normal(size=(n, m)))
            for _ in range(L)]


def zero_mean_jets(rng, L, n, m):
    vectors = rng.normal(size=(L, n, m))
    return [Jet(np.zeros(n), v) for v in vectors - vectors.mean(axis=0)]


# --- the list-based code, one Jet per subsystem ------------------------------


def split_mean_fluct_by_list(jets):
    L = len(jets)
    mean_scal = sum(j.scalar for j in jets) / L
    mean_vec = sum(j.vector for j in jets) / L
    mean = Jet(mean_scal, mean_vec)
    return mean, [Jet(j.scalar - mean_scal, j.vector - mean_vec) for j in jets]


def fragment_by_list(f0, p, q, mean, compl, linf, lam):
    scalars = lam ** p * (mean.scalar + [j.scalar for j in compl])
    with np.errstate(divide="ignore"):
        log_w = np.log(f0)[:, None] + scalars
    shifts = (lam ** p * (mean.vector + [j.vector for j in compl])
              + lam ** q * np.array([j.vector for j in linf]))
    return log_w, shifts


def increment_by_list(frag, jets):
    return (frag.log_weights + [j.scalar for j in jets],
            frag.shifts + [j.vector for j in jets])


def form_by_list(hessians, u, v):
    U, V = (np.array([j.vector for j in jets]) for jets in (u, v))
    return float(np.einsum("aik,ikl,ail->", U, hessians, V)) / len(u)


# --- the stacked parts --------------------------------------------------------


@pytest.mark.parametrize("L, n, m", [(1, 3, 2), (2, 4, 1), (3, 2, 3)])
def test_parts_carry_the_subsystem_axis_and_jets_give_the_input_back(rng, L, n, m):
    jets = random_jets(rng, L, n, m)
    mj = MultiJet(jets)
    assert mj.scalar.shape == (L, n) and mj.vector.shape == (L, n, m)
    assert (mj.n_subsystems, mj.size, mj.dimension) == (L, n, m)
    assert len(mj.jets) == L
    for got, given in zip(mj.jets, jets):
        assert type(got) is Jet
        assert same_bits(got.scalar, given.scalar) and same_bits(got.vector, given.vector)


def test_jets_are_views_of_the_parts(rng):
    mj = MultiJet(random_jets(rng, 2, 3, 2))
    for a, jet in enumerate(mj.jets):
        assert np.shares_memory(jet.scalar, mj.scalar[a])
        assert np.shares_memory(jet.vector, mj.vector[a])


def test_the_two_part_form_equals_the_list_form(rng):
    jets = random_jets(rng, 3, 4, 2)
    stacked = MultiJet(np.array([j.scalar for j in jets]), np.array([j.vector for j in jets]))
    assert same_bits(stacked.flatten(), MultiJet(jets).flatten())


@pytest.mark.parametrize("L, n, m", [(1, 3, 2), (2, 4, 1), (3, 2, 3)])
def test_flatten_is_the_subsystem_jets_one_after_another(rng, L, n, m):
    jets = random_jets(rng, L, n, m)
    mj = MultiJet(jets)
    flat = mj.flatten()
    assert flat.ndim == 1
    assert same_bits(flat, np.concatenate([j.flatten() for j in jets]))
    back = MultiJet.unflatten(flat, L, m)
    assert same_bits(back.scalar, mj.scalar) and same_bits(back.vector, mj.vector)


def test_zero_and_norm(rng):
    zero = MultiJet.zero(3, 2, 4)
    assert zero.scalar.shape == (3, 2) and zero.vector.shape == (3, 2, 4)
    assert zero.norm() == 0.0 and type(zero.norm()) is float
    jets = random_jets(rng, 3, 4, 2)
    assert MultiJet(jets).norm() == max(j.norm() for j in jets)


def test_difference_is_a_multijet(rng):
    a, b = (random_jets(rng, 2, 3, 2) for _ in range(2))
    diff = MultiJet(a) - MultiJet(b)
    assert isinstance(diff, MultiJet) and diff.n_subsystems == 2
    assert same_bits(diff.flatten(), np.concatenate([(x - y).flatten() for x, y in zip(a, b)]))


@pytest.mark.parametrize("combine", [lambda mj, j: mj + j, lambda mj, j: j + mj,
                                     lambda mj, j: mj - j],
                         ids=["multijet+jet", "jet+multijet", "multijet-jet"])
def test_a_multijet_and_a_jet_do_not_combine(rng, combine):
    jet = Jet(rng.normal(size=3), rng.normal(size=(3, 2)))
    with pytest.raises(ShapeError):
        combine(MultiJet([jet, jet]), jet)


@pytest.mark.parametrize("make", [
    lambda: MultiJet(np.zeros(2), np.zeros((2, 3))),
    lambda: MultiJet(np.zeros((0, 2)), np.zeros((0, 2, 3))),
    lambda: MultiJet([Jet.zero(2, 1), Jet.zero(3, 1)]),
    lambda: MultiJet([Jet.zero(2, 1), Jet.zero(2, 2)]),
    lambda: MultiJet(np.zeros((2, 2)), np.full((2, 2, 1), np.nan)),
    lambda: MultiJet.unflatten(np.zeros(6), 0, 1),
    lambda: MultiJet.unflatten(np.zeros((2, 4)), 2, 1),
], ids=["no-subsystem-axis", "no-subsystem", "sizes", "dimensions", "nan", "zero-subsystems",
        "2-D"])
def test_malformed_multijets_raise_shape_error(make):
    with pytest.raises(ShapeError):
        make()


# --- the fragmentation functions against the list code ------------------------


@pytest.mark.parametrize("L", [2, 3])
def test_split_mean_fluct_matches_the_list_code(rng, L):
    jets = random_jets(rng, L, 5, 2)
    mean, fluct = split_mean_fluct(MultiJet(jets))
    want_mean, want_fluct = split_mean_fluct_by_list(jets)
    assert same_bits(mean.scalar, want_mean.scalar) and same_bits(mean.vector, want_mean.vector)
    assert isinstance(fluct, MultiJet)
    for got, want in zip(fluct.jets, want_fluct):
        assert same_bits(got.scalar, want.scalar) and same_bits(got.vector, want.vector)


@pytest.mark.parametrize("L", [2, 3])
def test_fragment_measure_matches_the_list_code(rng, L):
    n, m, p, q, lam = 4, 2, 1.0, 1.5, 0.07
    base = DiscreteMeasure(rng.normal(size=(n, m)), rng.uniform(0.5, 1.5, size=n))
    mean = Jet(rng.normal(size=n), rng.normal(size=(n, m)))
    compl, linf = zero_mean_jets(rng, L, n, m), zero_mean_jets(rng, L, n, m)
    f0 = np.linspace(0.5, 1.5, L)
    frag = fragment_measure(base, FragmentationAnsatz(f0, p, q, mean, MultiJet(compl),
                                                      MultiJet(linf)), lam)
    log_w, shifts = fragment_by_list(f0, p, q, mean, compl, linf, lam)
    assert same_bits(frag.log_weights, log_w) and same_bits(frag.shifts, shifts)


@pytest.mark.parametrize("L", [2, 3])
def test_apply_increment_matches_the_list_code(rng, L):
    n, m = 4, 2
    base = DiscreteMeasure(rng.normal(size=(n, m)), np.ones(n))
    frag = FragmentedMeasure(base, rng.normal(size=(L, n)), rng.normal(size=(L, n, m)))
    jets = random_jets(rng, L, n, m)
    moved = apply_increment(frag, MultiJet(jets))
    log_w, shifts = increment_by_list(frag, jets)
    assert same_bits(moved.log_weights, log_w) and same_bits(moved.shifts, shifts)


@pytest.mark.parametrize("L", [2, 3])
def test_fluctuation_form_matches_the_list_code(rng, L):
    n, m = 4, 3
    a = rng.normal(size=(n, m, m))
    form = FluctuationForm(a + a.transpose(0, 2, 1))
    u, v = random_jets(rng, L, n, m), random_jets(rng, L, n, m)
    assert same_bits(form.form(MultiJet(u), MultiJet(v)), form_by_list(form.hessians, u, v))


# --- increments and form arguments of another shape ---------------------------


@pytest.mark.parametrize("L, L_increment", [(1, 3), (3, 2), (2, 1)])
def test_an_increment_of_another_subsystem_count_raises(L, L_increment):
    base = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), np.ones(2))
    frag = FragmentedMeasure(base, np.zeros((L, 2)), np.zeros((L, 2, 2)))
    with pytest.raises(ShapeError, match="increment"):
        apply_increment(frag, MultiJet.zero(L_increment, 2, 2))


@pytest.mark.parametrize("n, m", [(1, 2), (2, 1)], ids=["points", "dimension"])
def test_an_increment_of_another_support_raises(n, m):
    base = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), np.ones(2))
    frag = FragmentedMeasure(base, np.zeros((2, 2)), np.zeros((2, 2, 2)))
    with pytest.raises(ShapeError, match="increment"):
        apply_increment(frag, MultiJet.zero(2, n, m))


@pytest.mark.parametrize("n, m", [(2, 2), (1, 3)], ids=["points", "dimension"])
def test_the_form_rejects_jets_off_the_hessians_support(n, m):
    form = FluctuationForm(np.eye(2)[None])  # one point in dimension 2
    u = MultiJet([Jet(np.zeros(n), np.ones((n, m)))] * 2)
    with pytest.raises(ShapeError):
        form.form(u, u)
    good = MultiJet.zero(2, 1, 2)
    with pytest.raises(ShapeError):
        form.form(good, u)
