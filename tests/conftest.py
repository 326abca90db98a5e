import random

import pytest
from hypothesis import strategies as st

from cactusops import Element, Surjection, all_words, enumerate_basis, word_image

# Pools of basis surjections used by sampled property tests.  Built once;
# everything downstream is immutable.
CACTI_POOL = [
    u for n in range(2, 5) for k in range(0, n) for u in enumerate_basis(n, k, level=2)
]
SURJECTION_POOL = [
    u
    for n in range(1, 5)
    for k in range(0, 4)
    for u in enumerate_basis(n, k, level=None)
]
ELIGIBLE_POOL = [u for u in CACTI_POOL if u.seq.count(u.arity) == 1]

surjections = st.sampled_from(SURJECTION_POOL)
cacti = st.sampled_from(CACTI_POOL)
eligible_cacti = st.sampled_from(ELIGIBLE_POOL)


@st.composite
def elements(draw, pool=SURJECTION_POOL, max_terms=4, homogeneous=False):
    if homogeneous:
        anchor = draw(st.sampled_from(pool))
        choices = [u for u in pool if (u.arity, u.degree) == (anchor.arity, anchor.degree)]
    else:
        choices = pool
    terms = draw(
        st.lists(
            st.tuples(st.sampled_from(choices), st.integers(-3, 3)),
            max_size=max_terms,
        )
    )
    return Element(terms)


def word_image_sum(n):
    """psi_n by the word-image route, which shares only the sign rule with
    the sorted stream that builds it."""
    return Element.sum((1, word_image(w)) for w in all_words(n))


@pytest.fixture
def rng():
    return random.Random(20260809)
