import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactusops import (
    Element,
    NotHomogeneousError,
    OutOfRangeError,
    Surjection,
    a_infinity_image,
    boundary,
    boundary_basis,
    check_derivation,
    check_insertion_composition,
    check_operad_axioms,
    compose,
    compose_basis,
    composition_splits,
    enumerate_basis,
    insert_top_lobe,
)
from cactusops.operad import _compose_into

from conftest import as_seq, cacti, elements, surjections
from oracles import brute_force_sequences, naive_boundary, naive_compose, naive_relative_degree


def S(*values):
    return Surjection(values)


def E(*values):
    return Element.single(Surjection(values))


class TestComposeBasis:
    def test_associative_product(self):
        assert compose_basis(S(1, 2), 1, S(1, 2)) == E(1, 2, 3)
        assert compose_basis(S(1, 2), 2, S(1, 2)) == E(1, 2, 3)

    def test_spec_values(self):
        assert compose_basis(S(2, 1), 2, S(1, 2)) == E(2, 3, 1)
        assert compose_basis(S(1, 2, 1), 1, S(1, 2)) == E(1, 3, 1, 2) + E(1, 2, 3, 2)
        assert compose_basis(S(1, 2), 2, S(1, 2, 1)) == E(1, 2, 3, 2)

    def test_lobe_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            compose_basis(S(1, 2), 3, S(1, 2))
        with pytest.raises(OutOfRangeError):
            compose_basis(S(1, 2), 0, S(1, 2))

    def test_split_structure(self):
        splits = composition_splits(S(1, 2, 1), 1, S(1, 2))
        splits = [(as_seq(key), sign) for key, sign in splits]
        assert splits == [((1, 3, 1, 2), 1), ((1, 2, 3, 2), 1)]

    def test_matches_definition_oracle(self):
        # The full basis up to length 5, so that odd-degree junctions such as
        # (1,2,1,2) exercise every term of the closed-form sign.
        pool = [
            u for n in range(1, 4) for k in range(6 - n) for u in enumerate_basis(n, k, level=None)
        ]
        for v in pool:
            for u in pool:
                for t in range(1, v.arity + 1):
                    got = {w.seq: c for w, c in compose_basis(v, t, u).terms()}
                    assert got == naive_compose(v.seq, t, u.seq), (v, t, u)

    @given(cacti, cacti, st.data())
    @settings(deadline=None)
    def test_output_homogeneous_and_valid(self, v, u, data):
        t = data.draw(st.integers(1, v.arity))
        out = compose_basis(v, t, u)
        for w, _ in out.terms():
            assert Surjection(w.seq) == w
        assert out.bidegree() in (None, (v.arity + u.arity - 1, v.degree + u.degree))


class TestComposeElements:
    def test_symmetrized_square(self):
        psi2 = E(1, 2) + E(2, 1)
        assert compose(psi2, 1, psi2) == (
            E(1, 2, 3) + E(2, 1, 3) + E(3, 1, 2) + E(3, 2, 1)
        )

    def test_unit_axioms_exact(self):
        for u in (S(1), S(1, 2), S(2, 1, 3, 1), S(1, 2, 1, 3, 1)):
            assert compose(S(1), 1, u) == Element.single(u)
            for t in range(1, u.arity + 1):
                assert compose(u, t, S(1)) == Element.single(u)

    def test_rejects_mixed_elements(self):
        mixed = E(1, 2) + E(1, 2, 1)
        with pytest.raises(NotHomogeneousError):
            compose(mixed, 1, E(1, 2))

    def test_shared_split_tables_match_definition_oracle(self, rng):
        # Outer terms meeting the lobe 1..4 times, two per pattern of outer
        # suffix parities, so that the second of each pair reads the splits
        # its inner terms listed for its r, and the splits of one r are
        # signed against masks that differ.
        pool = list(enumerate_basis(3, 4, level=None))
        chosen = set()
        patterns = {}
        for t in (1, 2):
            groups = {}
            for v in pool:
                occurrences = [i + 1 for i, w in enumerate(v.seq) if w == t]
                parities = tuple(
                    naive_relative_degree(v.seq, o, len(v.seq)) % 2 for o in occurrences
                )
                groups.setdefault(parities, []).append(v)
            patterns[t] = {p for p, members in groups.items() if len(members) > 1}
            chosen.update(v for members in groups.values() for v in members[:2])
        for t in (1, 2):
            assert {len(p) for p in patterns[t]} == {1, 2, 3, 4}
            for r in (1, 2, 3, 4):
                assert {parity for p in patterns[t] if len(p) == r for parity in p} == {0, 1}
        outer = [(v, rng.choice([-3, -2, -1, 1, 2, 3])) for v in sorted(chosen)]
        inner = [(u, rng.choice([-2, -1, 1, 2])) for u in enumerate_basis(3, 1, level=None)[:5]]
        a, b = Element(outer), Element(inner)
        for t in (1, 2):  # one inner element at two lobes
            want = {}
            for v, c1 in outer:
                for u, c2 in inner:
                    for seq, sign in naive_compose(v.seq, t, u.seq).items():
                        want[seq] = want.get(seq, 0) + c1 * c2 * sign
            want = {seq: c for seq, c in want.items() if c}
            assert {w.seq: c for w, c in compose(a, t, b).terms()} == want, t

    def test_coefficients_and_scale_multiply_every_composite(self):
        # A non-unit coefficient, a negative scale, and a dict that already
        # holds terms, into which _compose_into adds in place.
        a, b = 3 * E(1, 2, 1) - E(2, 1, 2), E(1, 2) - 2 * E(2, 1)
        for t in (1, 2):
            once = compose(a, t, b)
            assert once
            assert compose(3 * a, t, b) == 3 * once
            assert compose(a, t, -b) == -1 * once
            data = {}
            _compose_into(data, 3 * a, t, b, -2)
            assert Element._trusted(dict(data)) == -6 * once
            _compose_into(data, a, t, b, 6)
            assert data == {}, t

    def test_zero_factor_gives_zero(self):
        assert compose(Element.zero(), 1, E(1, 2)) == Element.zero()
        assert compose(E(1, 2), 1, Element.zero()) == Element.zero()
        for t in (2, 7, 10**30):  # a zero element has no arity to exceed
            assert compose(Element.zero(), t, E(1, 2)) == Element.zero()
            assert compose(Element.zero(), t, Element.zero()) == Element.zero()

    @pytest.mark.parametrize("t", [True, 1.0, "x"])
    def test_lobe_type_checked_against_zero_left_operand(self, t):
        with pytest.raises(TypeError, match=re.escape(f"lobe {t!r} is not an int")):
            compose(Element.zero(), t, E(1, 2))

    @pytest.mark.parametrize("t", [0, -5])
    def test_lobe_below_one_checked_against_zero_left_operand(self, t):
        for b in (E(1, 2), Element.zero()):
            with pytest.raises(OutOfRangeError, match=rf"^lobe {t} is below 1$"):
                compose(Element.zero(), t, b)

    def test_lobe_checked_against_zero_right_operand(self):
        with pytest.raises(OutOfRangeError, match=r"lobe 3 not in 1\.\.2"):
            compose(E(1, 2), 3, Element.zero())
        with pytest.raises(OutOfRangeError):
            compose(E(1, 2), 0, Element.zero())


class TestBoundary:
    def test_boundary_of_121(self):
        assert boundary_basis(S(1, 2, 1)) == E(2, 1) - E(1, 2)

    def test_degree_zero_vanishes(self):
        assert boundary_basis(S(1, 2)) == Element.zero()
        assert boundary_basis(S(2, 1, 3)) == Element.zero()

    def test_nullhomotopy_of_associator(self):
        lhs = boundary(E(1, 3, 1, 2) - E(2, 1, 3, 1))
        assert lhs == E(2, 1, 3) + E(3, 1, 2) - E(1, 3, 2) - E(2, 3, 1)

    def test_d_squared_on_1212(self):
        assert boundary(boundary_basis(S(1, 2, 1, 2))) == Element.zero()

    def test_boundary_of_zero(self):
        assert boundary(Element.zero()) == Element.zero()

    def test_rejects_mixed(self):
        with pytest.raises(NotHomogeneousError):
            boundary(E(1, 2) + E(1, 2, 1))

    def test_d_squared_exhaustive_small(self):
        for n in range(1, 4):
            for length in range(n, n + 4):
                for seq in brute_force_sequences(n, length):
                    u = Surjection(seq)
                    assert boundary(boundary_basis(u)) == Element.zero(), u

    def test_basis_matches_definition_oracle(self):
        # The full basis (level=None) at arity <= 4 and length <= 7.
        count = 0
        for n in range(1, 5):
            for k in range(8 - n):
                for u in enumerate_basis(n, k, level=None):
                    got = {w.seq: c for w, c in boundary_basis(u).terms()}
                    assert got == naive_boundary(u.seq), u
                    count += 1
        assert count == 3283

    @staticmethod
    def _naive_element_boundary(a):
        total = {}
        for u, c in a.terms():
            for seq, sign in naive_boundary(u.seq).items():
                total[seq] = total.get(seq, 0) + c * sign
        return {seq: c for seq, c in total.items() if c}, total

    def test_structure_maps_match_definition_oracle(self):
        for n in (5, 6):
            want, raw = self._naive_element_boundary(a_infinity_image(n))
            assert {w.seq: c for w, c in boundary(a_infinity_image(n)).terms()} == want
            assert len(want) < len(raw)  # deletions of different terms cancel

    @given(elements(homogeneous=True, max_terms=6))
    @settings(deadline=None)
    def test_combinations_match_definition_oracle(self, a):
        want, _ = self._naive_element_boundary(a)
        assert {w.seq: c for w, c in boundary(a).terms()} == want

    def test_cancelling_combination_matches_definition_oracle(self):
        # d(d(u)) = 0 through cancellation across terms with coefficients +-c.
        for u in (S(1, 2, 1, 2, 1), S(1, 2, 3, 1, 2, 3), S(2, 1, 2, 3, 1, 3)):
            du = boundary_basis(u).scale(3)
            want, raw = self._naive_element_boundary(du)
            assert boundary(du) == Element.zero() and want == {} and raw, u

    @given(surjections)
    @settings(deadline=None)
    def test_d_squared_sampled(self, u):
        assert boundary(boundary_basis(u)) == Element.zero()

    @given(surjections)
    def test_degree_drops_by_one(self, u):
        out = boundary_basis(u)
        if out:
            assert out.bidegree() == (u.arity, u.degree - 1)


class TestAxiomChecks:
    def test_spec_relation1_shape(self):
        rep = check_operad_axioms(S(1, 2), 1, S(1, 2), 3, S(1, 2))
        assert rep.passed

    def test_spec_relation2_shape(self):
        rep = check_operad_axioms(S(1, 2, 1), 1, S(1, 2), 1, S(2, 1))
        assert rep.passed
        assert "relation1: not applicable" in rep.notes

    def test_unit_triple(self):
        rep = check_operad_axioms(S(1), 1, S(1), 1, S(1))
        assert rep.passed

    def test_not_applicable_when_outside_both_ranges(self):
        # j lands strictly after the block of b: neither relation constrains it.
        rep = check_operad_axioms(S(1, 2), 1, S(1, 2), 3, S(2, 1))
        assert rep.passed
        assert set(rep.notes) == {
            "relation1: not applicable",
            "relation2: not applicable",
        }

    def test_index_errors(self):
        with pytest.raises(OutOfRangeError):
            check_operad_axioms(S(1, 2), 3, S(1, 2), 1, S(1, 2))
        with pytest.raises(OutOfRangeError):
            check_operad_axioms(S(1, 2), 1, S(1, 2), 4, S(1, 2))

    @given(cacti, cacti, cacti, st.data())
    @settings(deadline=None, max_examples=60)
    def test_sampled_triples(self, a, b, c, data):
        i = data.draw(st.integers(1, a.arity))
        j = data.draw(st.integers(1, a.arity + b.arity - 1))
        rep = check_operad_axioms(a, i, b, j, c)
        assert rep.passed, rep.witness


class TestDerivation:
    def test_spec_pairs(self):
        assert check_derivation(S(1, 2, 1), 1, S(1, 2)).passed
        assert check_derivation(S(1, 2), 2, S(2, 1)).passed
        assert check_derivation(S(1, 2, 1), 2, S(1, 2, 1)).passed

    @given(cacti, cacti, st.data())
    @settings(deadline=None, max_examples=60)
    def test_sampled_pairs(self, a, b, data):
        i = data.draw(st.integers(1, a.arity))
        rep = check_derivation(a, i, b)
        assert rep.passed, rep.witness


U = S(1, 2)

# Each entry point that takes a 1-based index k, the label its messages give
# the index, and the largest valid k.
INDEXED = {
    "composition_splits": (lambda k: list(composition_splits(U, k, U)), "lobe ", 2),
    "compose_basis": (lambda k: compose_basis(U, k, U), "lobe ", 2),
    "compose": (lambda k: compose(U, k, U), "lobe ", 2),
    "check_operad_axioms-i": (lambda k: check_operad_axioms(U, k, U, 1, U), "i=", 2),
    "check_operad_axioms-j": (lambda k: check_operad_axioms(U, 1, U, k, U), "j=", 3),
    "check_derivation": (lambda k: check_derivation(U, k, U), "i=", 2),
    "check_insertion_composition": (lambda k: check_insertion_composition(U, k, U), "slot ", 2),
    "insert_top_lobe": (lambda k: insert_top_lobe(U, k), "position ", 2),
}


@pytest.mark.parametrize("name", INDEXED)
def test_index_must_be_an_int_in_range(name):
    call, label, high = INDEXED[name]
    for k in (True, 1.0):
        with pytest.raises(TypeError, match=re.escape(f"{label}{k!r} is not an int")):
            call(k)
    for k in (0, high + 1):
        with pytest.raises(OutOfRangeError, match=re.escape(f"{label}{k} not in 1..{high}")):
            call(k)
    call(high)
