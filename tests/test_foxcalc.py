"""Fox derivative axioms, fundamental identity, derivative matrices."""

import random

from hypothesis import given, settings, strategies as st

from alexarr.foxcalc import (
    GroupRingElement,
    alexander_matrix,
    check_fundamental_identity,
    fox_derivative,
    ring_image,
)
from alexarr.groups import Word, parse_presentation, presentation
from alexarr.ringkit import LaurentPolynomial

letters = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=12)


def test_axiom_identity_word():
    assert fox_derivative(Word.identity(), 0).is_zero()


def test_axiom_kronecker():
    assert fox_derivative(Word.generator(0), 0) == GroupRingElement.one()
    assert fox_derivative(Word.generator(0), 1).is_zero()


def test_axiom_product_prefix():
    w = Word.generator(0) * Word.generator(1)
    assert fox_derivative(w, 1) == GroupRingElement.from_word(Word.generator(0))


def test_commutator_derivative():
    comm = Word.generator(0).commutator(Word.generator(1))
    got = fox_derivative(comm, 0)
    expected = GroupRingElement.one() - GroupRingElement.from_word(Word([1, 2, -1]))
    assert got == expected
    assert check_fundamental_identity(comm, 2)


def test_group_ring_merges_terms():
    # hand-computed: the product cancels where the two words meet, equal
    # words add, and a zero sum drops its word
    x = GroupRingElement.from_word(Word([1]))
    assert x * GroupRingElement.from_word(Word([-1])) == GroupRingElement.one()
    assert (x - x).is_zero()
    assert (x + x).terms == {(1,): 2}


def test_fundamental_identity_trivial_cases():
    assert check_fundamental_identity(Word.identity(), 2)
    assert check_fundamental_identity(Word.generator(0), 2)


@settings(max_examples=300, deadline=None)
@given(letters)
def test_fundamental_identity_random(seq):
    assert check_fundamental_identity(Word(seq), 3)


@settings(max_examples=150, deadline=None)
@given(letters, letters)
def test_leibniz_rule_random(a, b):
    u, v = Word(a), Word(b)
    for j in range(3):
        lhs = fox_derivative(u * v, j)
        rhs = fox_derivative(u, j) + GroupRingElement.from_word(u) * fox_derivative(v, j)
        assert lhs == rhs


@settings(max_examples=150, deadline=None)
@given(letters)
def test_inverse_rule_random(seq):
    w = Word(seq)
    winv = GroupRingElement.from_word(w.inverse())
    for j in range(3):
        lhs = fox_derivative(w.inverse(), j)
        rhs = GroupRingElement.zero() - winv * fox_derivative(w, j)
        assert lhs == rhs


def test_fundamental_identity_on_corpus_relators():
    from alexarr.selftest import corpus_cases

    for case in corpus_cases():
        p = case.build()
        for rel in p.relators:
            assert check_fundamental_identity(rel, p.num_gens), case.name


# ----------------------------------------------------------------------
# derivative matrix


def test_commutator_matrix_column():
    p = parse_presentation("gens: a b\nrel: a b a^-1 b^-1\n")
    A = alexander_matrix(p)
    t1, t2 = (LaurentPolynomial.variable(i, 2) for i in range(2))
    assert A.matrix.entries[0][0] == 1 - t2
    assert A.matrix.entries[1][0] == t1 - 1


def test_central_commutator_matrix():
    p = parse_presentation(
        "gens: x1 x2 x3\nrel: x1 x3 x1^-1 x3^-1\nrel: x2 x3 x2^-1 x3^-1\n"
    )
    A = alexander_matrix(p)
    t1, t2, t3 = (LaurentPolynomial.variable(i, 3) for i in range(3))
    z = LaurentPolynomial.zero(3)
    assert A.matrix.entries == [
        [1 - t3, z],
        [z, 1 - t3],
        [t1 - 1, t2 - 1],
    ]


def test_free_group_matrix_is_empty():
    p = parse_presentation("gens: a b c\n")
    A = alexander_matrix(p)
    assert A.rows == 3 and A.cols == 0


def test_columns_annihilate_meridian_differences():
    from alexarr.selftest import corpus_cases

    for case in corpus_cases():
        p = case.build()
        A = alexander_matrix(p)
        for j in range(A.cols):
            assert A.column_identity_holds(j), f"{case.name} column {j}"


def test_random_single_relator_column_identity():
    rng = random.Random(17)
    for _ in range(60):
        seq = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 10))]
        w = Word(seq)
        text = "gens: a b c\nrel: " + (w.format(("a", "b", "c")) if len(w) else "")
        p = parse_presentation(text)
        A = alexander_matrix(p)
        assert A.column_identity_holds(0)


def assert_matrix_matches_ring_image(p):
    """Entry (i, j) of the one-scan matrix is the image of d(r_j)/d(x_i)
    computed in the free group ring."""
    A = alexander_matrix(p)
    assert (A.rows, A.cols) == (p.num_gens, p.num_relators)
    for j, rel in enumerate(p.relators):
        for i in range(p.num_gens):
            entry = A.matrix.entries[i][j]
            assert entry == ring_image(fox_derivative(rel, i), A.ab), (i, j)
            assert all(entry.terms.values())
            assert all(len(e) == A.ab.s for e in entry.terms)
    return A


def test_one_scan_matrix_matches_free_group_ring_on_random_presentations():
    rng = random.Random(12)
    torsion = 0
    for _ in range(150):
        m = rng.randint(1, 4)
        relators = []
        for _ in range(rng.randint(0, 4)):
            letters = []
            for _ in range(rng.randint(0, 5)):
                g = rng.randint(1, m) * rng.choice([1, -1])
                letters += [g] * rng.choice([1, 1, 2, 3])  # powers x^k, x^-k
            relators.append(Word(letters))
        p = presentation([f"x{i}" for i in range(m)], relators)
        A = assert_matrix_matches_ring_image(p)
        torsion += A.ab.s < m and A.ab.torsion_detected
    assert torsion > 10


def test_one_scan_matrix_with_torsion_and_an_identity_relator():
    # a^2 b^-3 and [a, b] leave Z from a and b; c^2 and its conjugate by
    # b^-1 a^-2 add the torsion Z/2, so s = 1 < m = 3; the identity relator
    # gives a zero column
    a, b = Word.generator(0), Word.generator(1)
    p = presentation("abc", [
        Word([1, 1, -2, -2, -2]), a.commutator(b), Word([3, 3]),
        Word.identity(), Word([-2, -1, -1, 3, 3, 1, 1, 2])])
    A = assert_matrix_matches_ring_image(p)
    assert A.ab.s == 1 and A.ab.torsion_detected
    assert all(A.matrix.entries[i][3].is_zero() for i in range(3))
    for j in range(A.cols):
        assert A.column_identity_holds(j)


def test_one_scan_matrix_matches_free_group_ring_on_corpus():
    from alexarr.selftest import corpus_cases

    for case in corpus_cases():
        assert_matrix_matches_ring_image(case.build())
