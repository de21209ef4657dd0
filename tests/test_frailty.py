"""Discrete mixing distributions: layouts, transform, projections, IO."""

import warnings

import numpy as np
import pytest

from frailtykit import (
    DiscreteFrailty,
    FrailtyKind,
    FrailtyStructure,
    canonicalize,
    coordinate_means,
    expand_to_pair,
    frailty_close,
    frailty_from_dict,
    frailty_to_dict,
    lst,
    marginal,
    normalize_to_unit_mean,
    sample,
    structure_from_dict,
    structure_to_dict,
    tilted_mean,
)

from helpers import ALL_KINDS, random_frailty


def make(kind, atoms, weights, l1=2, l2=2):
    return DiscreteFrailty(FrailtyStructure(kind, l1, l2), atoms, weights)


def test_dimensions_per_kind():
    assert FrailtyStructure(FrailtyKind.SHARED, 2, 3).dimension == 1
    assert FrailtyStructure(FrailtyKind.CORRELATED, 2, 3).dimension == 2
    assert FrailtyStructure(
        FrailtyKind.SHARED_CAUSE_SPECIFIC, 3, 3).dimension == 3
    assert FrailtyStructure(
        FrailtyKind.CORRELATED_CAUSE_SPECIFIC, 2, 2).dimension == 4


def test_cause_specific_requires_equal_cause_counts():
    with pytest.raises(ValueError):
        FrailtyStructure(FrailtyKind.SHARED_CAUSE_SPECIFIC, 2, 3)
    with pytest.raises(ValueError):
        FrailtyStructure(FrailtyKind.CORRELATED_CAUSE_SPECIFIC, 3, 2)


def test_coordinate_layout():
    s = FrailtyStructure(FrailtyKind.CORRELATED_CAUSE_SPECIFIC, 2, 2)
    # individual-major layout: both causes of individual 1 come first
    assert [s.coordinate_of(1, 1), s.coordinate_of(1, 2),
            s.coordinate_of(2, 1), s.coordinate_of(2, 2)] == [0, 1, 2, 3]
    s = FrailtyStructure(FrailtyKind.SHARED_CAUSE_SPECIFIC, 2, 2)
    assert s.coordinate_of(1, 2) == s.coordinate_of(2, 2) == 1
    s = FrailtyStructure(FrailtyKind.CORRELATED, 2, 3)
    assert s.coordinate_of(1, 2) == 0 and s.coordinate_of(2, 3) == 1
    s = FrailtyStructure(FrailtyKind.SHARED, 2, 2)
    assert s.coordinate_of(1, 1) == s.coordinate_of(2, 2) == 0


@pytest.mark.contract
@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_layout_matches_the_closed_forms(kind, l):
    closed_form = {
        FrailtyKind.SHARED: (1, lambda k, j: 0),
        FrailtyKind.CORRELATED: (2, lambda k, j: k - 1),
        FrailtyKind.SHARED_CAUSE_SPECIFIC: (l, lambda k, j: j - 1),
        FrailtyKind.CORRELATED_CAUSE_SPECIFIC:
            (2 * l, lambda k, j: (k - 1) * l + j - 1),
    }
    dimension, coordinate = closed_form[kind]
    s = FrailtyStructure(kind, l, l)
    slots = [(k, j) for k in (1, 2) for j in range(1, l + 1)]
    assert s.dimension == dimension
    assert list(s.slots) == slots
    for k in (1, 2):
        assert s.num_causes(k) == l
        assert s.coordinates(k) == tuple(
            coordinate(k, j) for j in range(1, l + 1))
    for k, j in slots:
        assert s.coordinate_of(k, j) == coordinate(k, j)
        assert type(s.coordinate_of(k, j)) is int


@pytest.mark.contract
@pytest.mark.parametrize("count", [2.7, 2.0, True, "2", None, 0, -1])
def test_cause_counts_must_be_integers_of_at_least_one(count):
    for kind in ALL_KINDS:
        with pytest.raises(ValueError, match="cause count"):
            FrailtyStructure(kind, count, count)
    with pytest.raises(ValueError, match="cause count"):
        FrailtyStructure(FrailtyKind.SHARED, 2, count)
    with pytest.raises(ValueError, match="cause count"):
        structure_from_dict({"kind": "shared", "l1": count, "l2": 2})
    s = FrailtyStructure(FrailtyKind.SHARED, np.int64(2), np.int64(3))
    assert (type(s.num_causes_1), s.num_causes(2)) == (int, 3)


@pytest.mark.contract
@pytest.mark.parametrize("k", [1.0, 2.0, True, 0, 3, np.int64(3), "1"])
def test_individual_index_must_be_1_or_2(k):
    for kind in ALL_KINDS:
        s = FrailtyStructure(kind, 2, 2)
        for call in (s.num_causes, s.coordinates,
                     lambda k: s.coordinate_of(k, 1)):
            with pytest.raises(ValueError, match="individual"):
                call(k)


@pytest.mark.contract
@pytest.mark.parametrize("j", [1.5, 2.0, True, 0, 3, -1])
def test_cause_index_must_be_an_integer_in_range(j):
    for kind in ALL_KINDS:
        s = FrailtyStructure(kind, 2, 2)
        with pytest.raises(ValueError, match="cause of individual 2"):
            s.coordinate_of(2, j)
    s = FrailtyStructure(FrailtyKind.CORRELATED_CAUSE_SPECIFIC, 2, 2)
    assert s.coordinate_of(np.int64(2), np.int64(2)) == 3


def test_normalize_examples():
    g = make(FrailtyKind.SHARED, [[2.0]], [1.0])
    np.testing.assert_allclose(normalize_to_unit_mean(g).atoms, [[1.0]])

    g = make(FrailtyKind.SHARED, [[0.5], [1.5]], [0.5, 0.5])
    np.testing.assert_allclose(normalize_to_unit_mean(g).atoms,
                               [[0.5], [1.5]])

    g = make(FrailtyKind.CORRELATED, [[1.0, 4.0], [3.0, 2.0]], [0.5, 0.5])
    np.testing.assert_allclose(
        normalize_to_unit_mean(g).atoms,
        [[0.5, 4.0 / 3.0], [1.5, 2.0 / 3.0]])


def test_lst_known_values():
    g = make(FrailtyKind.SHARED, [[1.0]], [1.0])
    assert abs(lst(g, [1.0]) - np.exp(-1.0)) < 1e-15
    assert lst(g, [0.0]) == 1.0

    g = make(FrailtyKind.SHARED, [[0.5], [1.5]], [0.5, 0.5])
    assert abs(lst(g, [1.0])
               - 0.5 * (np.exp(-0.5) + np.exp(-1.5))) < 1e-15
    assert abs(tilted_mean(g, 0, [1.0])
               - 0.5 * (0.5 * np.exp(-0.5) + 1.5 * np.exp(-1.5))) < 1e-15
    assert tilted_mean(g, 0, [0.0]) == 1.0


def test_lst_strictly_decreasing_per_coordinate():
    rng = np.random.default_rng(17)
    for kind in ALL_KINDS:
        structure = FrailtyStructure(kind, 2, 2)
        g = random_frailty(structure, rng, 3)
        base = np.full(structure.dimension, 0.4)
        v0 = lst(g, base)
        for i in range(structure.dimension):
            bumped = base.copy()
            bumped[i] += 0.3
            assert lst(g, bumped) < v0


def test_lst_batch_evaluation():
    rng = np.random.default_rng(29)
    structure = FrailtyStructure(FrailtyKind.CORRELATED, 2, 2)
    g = random_frailty(structure, rng, 3)
    ss = rng.uniform(0.0, 2.0, size=(40, 2))
    batch = lst(g, ss)
    single = np.array([lst(g, s) for s in ss])
    np.testing.assert_allclose(batch, single, rtol=1e-15)
    with pytest.raises(ValueError):
        lst(g, [-0.1, 0.0])


def test_marginal_projection_examples():
    g = make(FrailtyKind.CORRELATED, [[1.0, 2.0], [1.0, 3.0]], [0.4, 0.6])
    proj = marginal(g, [0])
    np.testing.assert_allclose(proj.atoms, [[1.0]])
    np.testing.assert_allclose(proj.weights, [1.0])

    g = make(FrailtyKind.CORRELATED, [[0.5, 1.5], [1.5, 0.5]], [0.5, 0.5])
    proj = marginal(g, [1])
    got = sorted(zip(proj.atoms.ravel(), proj.weights))
    assert np.allclose(got, [(0.5, 0.5), (1.5, 0.5)])


def test_expand_to_pair_layouts():
    g = make(FrailtyKind.SHARED, [[2.0]], [1.0], l1=2, l2=2)
    e1, e2 = expand_to_pair(g, 0)
    np.testing.assert_allclose(e1, [2.0, 2.0])
    np.testing.assert_allclose(e2, [2.0, 2.0])

    g = make(FrailtyKind.CORRELATED, [[0.5, 1.5]], [1.0], l1=2, l2=3)
    e1, e2 = expand_to_pair(g, 0)
    np.testing.assert_allclose(e1, [0.5, 0.5])
    np.testing.assert_allclose(e2, [1.5, 1.5, 1.5])

    g = make(FrailtyKind.CORRELATED_CAUSE_SPECIFIC,
             [[0.7, 0.9, 1.1, 1.3]], [1.0])
    e1, e2 = expand_to_pair(g, 0)
    np.testing.assert_allclose(e1, [0.7, 0.9])
    np.testing.assert_allclose(e2, [1.1, 1.3])


def test_sample_behavior():
    g = make(FrailtyKind.SHARED, [[1.0]], [1.0])
    idx = sample(g, 7, 5)
    assert list(idx) == [0] * 5
    assert sample(g, 7, 0).size == 0

    g = make(FrailtyKind.SHARED, [[0.5], [1.5]], [0.5, 0.5])
    idx = sample(g, np.random.default_rng(123), 100000)
    freq = np.mean(idx == 0)
    assert abs(freq - 0.5) < 0.006


@pytest.mark.parametrize("n", [2.5, True, -1, np.nan])
def test_sample_rejects_a_count_that_is_not_a_nonnegative_integer(n):
    g = make(FrailtyKind.SHARED, [[1.0]], [1.0])
    with pytest.raises(ValueError, match="n must be an integer"):
        sample(g, 7, n)


@pytest.mark.contract
@pytest.mark.parametrize("seed", [1.5, "a", True, -1, 2 ** 64])
def test_sample_rejects_a_seed_that_is_not_a_64_bit_integer(seed):
    g = make(FrailtyKind.SHARED, [[1.0]], [1.0])
    with pytest.raises(ValueError, match="seed must be an integer"):
        sample(g, seed, 5)
    assert sample(g, np.uint64(2 ** 64 - 1), 2).tolist() == [0, 0]


def test_canonicalize_merges_and_sorts():
    g = make(FrailtyKind.SHARED, [[1.5], [0.5], [0.5]], [0.25, 0.5, 0.25])
    c = canonicalize(g)
    np.testing.assert_allclose(c.atoms, [[0.5], [1.5]])
    np.testing.assert_allclose(c.weights, [0.75, 0.25])

    a = make(FrailtyKind.SHARED, [[0.5], [1.5]], [0.5, 0.5])
    b = make(FrailtyKind.SHARED, [[1.5], [0.5]], [0.5, 0.5])
    assert frailty_close(a, b)
    assert not frailty_close(a, make(FrailtyKind.SHARED, [[0.6], [1.4]],
                                     [0.5, 0.5]))


def test_validation_errors():
    s = FrailtyStructure(FrailtyKind.SHARED, 2, 2)
    with pytest.raises(ValueError):
        DiscreteFrailty(s, [[1.0], [-0.5]], [0.5, 0.5])
    with pytest.raises(ValueError):
        DiscreteFrailty(s, [[1.0]], [0.7])
    with pytest.raises(ValueError):
        DiscreteFrailty(s, [[1.0, 2.0]], [1.0])
    with pytest.raises(ValueError):
        DiscreteFrailty(s, [[np.inf]], [1.0])


def test_atoms_are_frozen():
    g = make(FrailtyKind.SHARED, [[0.5], [1.5]], [0.5, 0.5])
    with pytest.raises(ValueError):
        g.atoms[0, 0] = 2.0


def test_structure_dict_round_trip():
    for kind in ALL_KINDS:
        l = 2
        s = FrailtyStructure(kind, l, l)
        assert structure_from_dict(structure_to_dict(s)) == s
    with pytest.raises(ValueError):
        structure_from_dict({"kind": "nope", "l1": 2, "l2": 2})


def test_frailty_dict_round_trip_and_mean_handling():
    rng = np.random.default_rng(41)
    for kind in ALL_KINDS:
        structure = FrailtyStructure(kind, 2, 2)
        g = random_frailty(structure, rng, 3)
        d = frailty_to_dict(g)
        assert d.get("assert_mean_one") is True
        again = frailty_from_dict(d, structure=structure)
        assert frailty_close(g, again, tol=1e-12)

    # loader renormalizes unless told the data is already mean one
    structure = FrailtyStructure(FrailtyKind.SHARED, 2, 2)
    loaded = frailty_from_dict(
        {"atoms": [[2.0]], "weights": [1.0]}, structure=structure)
    np.testing.assert_allclose(loaded.atoms, [[1.0]])
    with pytest.raises(ValueError):
        frailty_from_dict(
            {"atoms": [[2.0]], "weights": [1.0], "assert_mean_one": True},
            structure=structure)


def test_infinite_weights_are_rejected_before_normalizing():
    structure = FrailtyStructure(FrailtyKind.SHARED, 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="weights"):
            frailty_from_dict({"atoms": [[1.0], [2.0]],
                               "weights": [np.inf, 1.0]}, structure=structure)


def test_coordinate_means():
    g = make(FrailtyKind.CORRELATED, [[0.5, 2.0], [1.5, 0.0001]],
             [0.5, 0.5])
    means = coordinate_means(g)
    np.testing.assert_allclose(means, [1.0, 1.00005])


@pytest.mark.parametrize("s", [[np.nan, 1.0], [[0.5, 1.0], [1.0, np.nan]]])
def test_transforms_reject_nan_arguments(s):
    g = make(FrailtyKind.CORRELATED, [[0.5, 1.5], [1.5, 0.5]], [0.5, 0.5])
    with pytest.raises(ValueError, match="NaN"):
        lst(g, s)
    with pytest.raises(ValueError, match="NaN"):
        tilted_mean(g, 0, s)
    with pytest.raises(ValueError, match="nonnegative"):
        lst(g, [-1.0, 1.0])
    with pytest.raises(ValueError, match="dimension"):
        tilted_mean(g, 1, 1.0)


@pytest.mark.parametrize("index", [1.0, 0.5, True, np.bool_(False), "0", -1, 2])
def test_coordinate_and_atom_index_must_be_integers_in_range(index):
    g = make(FrailtyKind.CORRELATED, [[0.5, 1.5], [1.5, 0.5]], [0.5, 0.5])
    with pytest.raises(ValueError, match="coordinate"):
        tilted_mean(g, index, [0.1, 0.2])
    with pytest.raises(ValueError, match="atom index"):
        expand_to_pair(g, index)
    with pytest.raises(ValueError, match="coordinate"):
        marginal(g, [index])
    assert expand_to_pair(g, np.int64(1)) == ((1.5,) * 2, (0.5,) * 2)
    assert tilted_mean(g, np.int64(1), [0.0, 0.0]) == 1.0
