"""Presentation DSL, free words, abelianization."""

import pytest
from hypothesis import example, given, settings, strategies as st

from alexarr.groups import (
    Presentation,
    PresentationError,
    Word,
    abelianize,
    free_reduce,
    parse_presentation,
    presentation,
    reduced_inverse,
    reduced_product,
    reduced_product_with_inverse,
    serialize_presentation,
)

letters = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=16)
# runs of up to 12 equal letters, so formatted words carry exponents
runs = st.lists(
    st.tuples(st.sampled_from([1, -1, 2, -2, 3, -3]), st.integers(1, 12)), max_size=6
).map(lambda rs: [x for x, n in rs for _ in range(n)])
words = st.one_of(letters, runs).map(Word)
NAMES = ("a", "b", "c")


def test_parse_commutator_presentation():
    p = parse_presentation("gens: a b\nrel: a b a^-1 b^-1")
    assert p.gens == ("a", "b")
    assert p.relators == (Word([1, 2, -1, -2]),)
    assert p.meridians == (True, True)


def test_parse_free_group():
    p = parse_presentation("gens: a\n")
    assert p.num_gens == 1 and p.num_relators == 0


def test_parse_trefoil_style():
    p = parse_presentation("gens: a b\nrel: a b a b^-1 a^-1 b^-1\n")
    assert p.relators[0] == Word([1, 2, 1, -2, -1, -2])


def test_parse_exponents_and_comments():
    p = parse_presentation("# header\ngens: a b  # trailing\nrel: a^3 b^-2\n")
    assert p.relators[0] == Word([1, 1, 1, -2, -2])


def test_parse_meridians_line():
    p = parse_presentation("gens: a b\nmeridians: b\n")
    assert p.meridians == (False, True)


@pytest.mark.parametrize(
    "text",
    [
        "rel: a\n",                      # rel before gens
        "gens: a a\n",                   # duplicate generator
        "gens:\n",                       # empty generator list
        "gens: a\nrel: b\n",             # unknown generator
        "gens: a\nrel: a^x\n",           # malformed exponent
        "gens: a\nrel: a^1_0\n",         # int() would read 10
        "gens: a\nrel: a^\u0663\n",      # int() would read an Arabic-Indic 3
        "gens: a\nmeridians: b\n",       # unknown meridian
        "gens: a\nwhat: a\n",            # unknown key
        "just text\n",                   # no colon
        "",                              # no gens at all
    ],
)
def test_parse_errors(text):
    with pytest.raises(PresentationError):
        parse_presentation(text)


def test_free_reduce_examples():
    assert free_reduce([1, -1]) == ()
    assert free_reduce([1, 2, -2, 1]) == (1, 1)
    assert free_reduce([1, 2, -1]) == (1, 2, -1)


@settings(max_examples=200, deadline=None)
@given(letters)
def test_free_reduce_idempotent_and_nonincreasing(seq):
    once = free_reduce(seq)
    assert free_reduce(once) == once
    assert len(once) <= len(seq)


@settings(max_examples=100, deadline=None)
@given(letters)
def test_word_times_inverse_is_identity(seq):
    w = Word(seq)
    assert (w * w.inverse()).is_identity()


@settings(max_examples=300, deadline=None)
@given(words, words, st.integers(0, 40), st.booleans())
def test_word_product_cancels_at_the_seam(u, w, cut, whole):
    # v opens with the inverse of the last `cut` letters of u, so the seam
    # cancels them (all of u when cut >= len(u)); with `whole`, v is only
    # that inverse
    tail = Word(u.letters[max(len(u) - cut, 0):])
    v = tail.inverse() if whole else tail.inverse() * w
    assert (u * v).letters == free_reduce(u.letters + v.letters)
    assert (u * w).letters == free_reduce(u.letters + w.letters)
    assert (u * u.inverse()).is_identity() and (u.inverse() * u).is_identity()
    assert u * Word.identity() == u == Word.identity() * u
    inv = tuple(-x for x in reversed(w.letters))
    assert (w * u * w.inverse()).letters == free_reduce(w.letters + u.letters + inv)


def format_oracle(letters, names):
    """The run-length loop that Word.format replaced."""
    if not letters:
        return "1"
    out = []
    i = 0
    while i < len(letters):
        x = letters[i]
        j = i
        while j + 1 < len(letters) and letters[j + 1] == x:
            j += 1
        count = j - i + 1
        name = names[abs(x) - 1]
        exp = count if x > 0 else -count
        out.append(name if exp == 1 else f"{name}^{exp}")
        i = j + 1
    return " ".join(out)


@settings(max_examples=300, deadline=None)
@given(words)
def test_word_format_and_max_generator(u):
    text = u.format(NAMES)
    assert text == format_oracle(u.letters, NAMES)
    assert u.max_generator() == max((abs(x) - 1 for x in u.letters), default=-1)
    if not u.is_identity():
        p = parse_presentation("gens: a b c\nrel: " + text + "\n")
        assert p.relators == (u,)


def test_word_format_examples():
    assert Word.identity().format(NAMES) == "1"
    assert Word.identity().max_generator() == -1
    assert Word([1, 1, 1, -2, 3, -1, -1, 2, -3]).format(NAMES) == "a^3 b^-1 c a^-2 b c^-1"
    assert Word([-3] * 12).format(NAMES) == "c^-12"


def test_roundtrip_through_serializer():
    text = "gens: a b c\nrel: a b a^-1 b^-1\nrel: b^2 c^-3 a\nmeridians: a c\n"
    p = parse_presentation(text)
    assert parse_presentation(serialize_presentation(p)) == p
    # the identity relator is written "rel:", the empty word of the DSL
    text = "gens: a b\nrel:\nrel: a b\nrel:\nmeridians: a\n"
    p = parse_presentation(text)
    assert serialize_presentation(p) == text
    assert parse_presentation(serialize_presentation(p)) == p


GEN_NAMES = ("a", "b", "c", "x1", "x10", "g_2")


@st.composite
def presentations(draw):
    """Random presentations: plain words, words with runs of either sign,
    single letters, identity relators, and any meridian flags."""
    m = draw(st.integers(1, 4))
    gens = draw(st.lists(st.sampled_from(GEN_NAMES), min_size=m, max_size=m, unique=True))
    letter = st.integers(1, m).flatmap(lambda i: st.sampled_from([i, -i]))
    plain = st.lists(letter, max_size=8)
    with_runs = st.lists(st.tuples(letter, st.integers(1, 4)), max_size=5).map(
        lambda rs: [x for x, n in rs for _ in range(n)])
    rels = draw(st.lists(st.one_of(plain, with_runs).map(Word), max_size=6))
    flags = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    return presentation(gens, rels, flags)


def serialize_oracle(p):
    lines = ["gens: " + " ".join(p.gens)]
    lines += ["rel: " + r.format(p.gens) if r.letters else "rel:" for r in p.relators]
    if not all(p.meridians):
        lines.append("meridians: " + " ".join(g for g, f in zip(p.gens, p.meridians) if f))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(presentations())
@example(presentation(
    ["a", "b", "c"],
    [Word([1, 1, 1, -2, -2]), Word([2]), Word([-3]), Word(), Word([1, 2, -1, -2, 3, -3])],
    [True, False, True],
))
def test_serializer_matches_per_word_format(p):
    text = serialize_presentation(p)
    assert text == serialize_oracle(p)
    assert parse_presentation(text) == p


@pytest.mark.parametrize("text, message", [
    ("gens: a b\nrel: a c\n", "line 2: unknown generator name 'c'"),
    ("gens: a\nrel: a\n\nrel: a^1_0\n", "line 4: malformed exponent in token 'a^1_0'"),
    ("gens: a\nrel: a^-99999999999999999999\n",
     "line 2: exponent too large to expand in token 'a^-99999999999999999999'"),
    ("gens: x^2 b\nrel: b x^2 b^-1\n", "line 1: generator name 'x^2' contains '^'"),
    ("# a ^ in any place\ngens: a ^b\n", "line 2: generator name '^b' contains '^'"),
])
def test_parse_errors_name_their_line(text, message):
    with pytest.raises(PresentationError) as exc:
        parse_presentation(text)
    assert str(exc.value) == message


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text("ab1_:'^-", min_size=1, max_size=3), min_size=1, max_size=4,
                unique=True),
       st.lists(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4]), max_size=6),
                max_size=3))
def test_every_generator_name_the_dsl_accepts_round_trips(gens, rels):
    # a name with '^' would serialize as a power of a shorter name
    m = len(gens)
    relators = [Word([x for x in r if abs(x) <= m]) for r in rels]
    if any("^" in g for g in gens):
        with pytest.raises(PresentationError, match="^generator name .* contains '\\^'$"):
            presentation(gens, relators)
    else:
        p = presentation(gens, relators)
        assert parse_presentation(serialize_presentation(p)) == p


@pytest.mark.parametrize("gens, message", [
    (["a b", "c"], "generator name 'a b' contains ' '"),
    (["a#", "b"], "generator name 'a#' contains '#'"),
    (["x^2", "b"], "generator name 'x^2' contains '^'"),
    (["a", ""], "empty generator name"),
], ids=["space", "hash", "caret", "empty"])
def test_names_the_dsl_would_read_differently_are_refused(gens, message):
    # serialized, 'a b' would read back as two generators, 'a#' as 'a'
    # followed by a comment, and 'x^2' as a power
    with pytest.raises(PresentationError) as exc:
        presentation(gens, [])
    assert str(exc.value) == message


@pytest.mark.parametrize("m", [1, 2, 5])
def test_generator_index_check_at_its_boundary(m):
    gens = [f"g{i}" for i in range(m)]
    flags = (True,) * m
    edge = (Word([m]), Word([-m]))
    assert presentation(gens, edge).relators == edge
    assert Presentation(tuple(gens), edge, flags).relators == edge
    for bad in (m + 1, -(m + 1)):
        with pytest.raises(PresentationError, match="relator references unknown generator"):
            presentation(gens, [Word([1]), Word([bad])])
        with pytest.raises(PresentationError, match="relator references unknown generator"):
            Presentation(tuple(gens), (Word([bad]),), flags)


def test_abelianize_commutator_is_full_rank():
    p = parse_presentation("gens: a b\nrel: a b a^-1 b^-1\n")
    ab = abelianize(p)
    assert ab.s == 2
    assert ab.quotient_map == ((1, 0), (0, 1))
    assert ab.psi == (1, 1)
    assert not ab.torsion_detected


def test_abelianize_free_group_is_identity():
    p = parse_presentation("gens: a b c\n")
    ab = abelianize(p)
    assert ab.s == 3
    assert ab.quotient_map == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert ab.psi == (1, 1, 1)


def test_abelianize_trefoil_style_collapses_to_one_variable():
    p = parse_presentation("gens: a b\nrel: a b a b^-1 a^-1 b^-1\n")
    ab = abelianize(p)
    assert ab.s == 1
    assert ab.quotient_map == ((1,), (1,))
    assert ab.psi == (1, 1)


def test_abelianize_detects_torsion():
    p = parse_presentation("gens: a b\nrel: a^2\nmeridians: b\n")
    ab = abelianize(p)
    assert ab.torsion_detected
    assert ab.s == 1


def test_relators_die_in_quotient():
    from alexarr.selftest import corpus_cases

    for case in corpus_cases():
        p = case.build()
        ab = abelianize(p)
        for rel in p.relators:
            assert ab.word_image(rel) == (0,) * ab.s, case.name


def test_linking_vector_of_word_products():
    # the full central product in a pencil maps to the total line count
    from alexarr.arrangements import family_presentation

    p = family_presentation("pencil", 4)
    ab = abelianize(p)
    full = Word([4, 3, 2, 1])
    assert sum(ab.word_image(full)) == 4
    assert sum(ab.word_image(Word.identity())) == 0


@given(letters.map(free_reduce), letters.map(free_reduce))
@example((1, 2), (-2, -1, 3))  # a^-1 is a prefix of b
@example((3, 1, 2), (-2, -1))  # b is a prefix of a^-1
@example((1, 2), (-2, -1))
def test_product_with_inverse_matches_product_then_inverse(a, b):
    ab = reduced_product(a, b)
    got = reduced_product_with_inverse(a, reduced_inverse(a), b, reduced_inverse(b))
    assert got == (ab, reduced_inverse(ab))


@given(letters.map(free_reduce), letters.map(free_reduce))
def test_double_point_relator_from_the_new_lower_word(w1, w2):
    """The sweep's double-point relator w2*N^-1, N = w1*w2*w1^-1, is the
    reduced commutator w2*w1*w2^-1*w1^-1."""
    lower = reduced_product(reduced_product(w1, w2), reduced_inverse(w1))
    assert reduced_product(w2, reduced_inverse(lower)) == free_reduce(
        w2 + w1 + reduced_inverse(w2) + reduced_inverse(w1))
