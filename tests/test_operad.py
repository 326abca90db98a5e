import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactusops import (
    UNIT,
    Element,
    NotHomogeneousError,
    OutOfRangeError,
    Surjection,
    boundary,
    boundary_basis,
    check_derivation,
    check_operad_axioms,
    compose,
    compose_basis,
    composition_splits,
    enumerate_basis,
    koszul_sign,
)

from conftest import cacti, elements, surjections
from oracles import brute_force_sequences, naive_compose, naive_koszul_sign


def S(*values):
    return Surjection(values)


def E(*values):
    return Element.single(Surjection(values))


class TestKoszulSign:
    def test_even_degrees_never_sign(self):
        assert koszul_sign([2, 0, 4, 0], [3, 2, 1, 0]) == 1

    def test_single_swap_of_odd_symbols(self):
        assert koszul_sign([1, 1], [1, 0]) == -1
        assert koszul_sign([1, 2], [1, 0]) == 1

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=6).flatmap(
            lambda degs: st.permutations(range(len(degs))).map(lambda p: (degs, list(p)))
        )
    )
    def test_matches_parity_oracle(self, case):
        degrees, order = case
        assert koszul_sign(degrees, order) == naive_koszul_sign(degrees, order)


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
        splits = list(composition_splits(S(1, 2, 1), 1, S(1, 2)))
        assert [(w.seq, sign) for w, sign in splits] == [((1, 3, 1, 2), 1), ((1, 2, 3, 2), 1)]
        for w, _ in splits:
            assert w == Surjection(w.seq)

    def test_matches_definition_oracle(self):
        pool = [u for n in range(1, 4) for k in range(n) for u in enumerate_basis(n, k, level=2)]
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
            assert compose(UNIT, 1, u) == Element.single(u)
            for t in range(1, u.arity + 1):
                assert compose(u, t, UNIT) == Element.single(u)

    def test_rejects_mixed_elements(self):
        mixed = E(1, 2) + E(1, 2, 1)
        with pytest.raises(NotHomogeneousError):
            compose(mixed, 1, E(1, 2))

    def test_zero_factor_gives_zero(self):
        assert compose(Element.zero(), 1, E(1, 2)) == Element.zero()
        assert compose(E(1, 2), 1, Element.zero()) == Element.zero()


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
