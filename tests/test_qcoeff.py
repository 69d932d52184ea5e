"""Exact scalar arithmetic: Laurent polynomials in q and Q(zeta_p)."""

import random
from fractions import Fraction

import pytest

from superchar import is_prime
from superchar.qcoeff import Cyclotomic, LaurentPoly, rational


def random_poly(rng):
    return LaurentPoly(
        {rng.randrange(-4, 5): rng.randrange(-9, 10) for _ in range(rng.randrange(5))}
    )


class TestLaurentPoly:
    def test_normalization_drops_zero_coefficients(self):
        f = LaurentPoly({2: 1, 0: 0, -1: 0})
        assert f.coeffs == {2: 1}
        assert (LaurentPoly({1: 1}) - LaurentPoly({1: 1})) == LaurentPoly.zero()
        assert LaurentPoly.zero().coeffs == {}

    def test_ring_laws_on_random_elements(self):
        rng = random.Random(11)
        for _ in range(200):
            f, g, h = (random_poly(rng) for _ in range(3))
            assert f + g == g + f
            assert f * g == g * f
            assert (f + g) + h == f + (g + h)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h

    def test_evaluation_is_a_ring_homomorphism(self):
        rng = random.Random(12)
        for _ in range(100):
            f, g = random_poly(rng), random_poly(rng)
            x = Fraction(rng.randrange(1, 7), rng.randrange(1, 5))
            assert (f * g).eval_at(x) == f.eval_at(x) * g.eval_at(x)
            assert (f + g).eval_at(x) == f.eval_at(x) + g.eval_at(x)

    def test_evaluation_spot_values(self):
        assert LaurentPoly.one().eval_at(7) == 1
        assert LaurentPoly({-1: 1, 0: 1}).eval_at(2) == Fraction(3, 2)
        # q*(4q-3) at q=2
        f = LaurentPoly({1: 1}) * LaurentPoly({1: 4, 0: -3})
        assert f.eval_at(2) == 10

    def test_pole_at_zero_is_an_error(self):
        with pytest.raises(ZeroDivisionError):
            LaurentPoly({-1: 1}).eval_at(0)
        assert LaurentPoly({2: 3}).eval_at(0) == 0

    def test_shift_and_power(self):
        q = LaurentPoly({1: 1})
        assert q.shift(-1) == LaurentPoly.one()
        assert q ** 0 == LaurentPoly.one()
        assert LaurentPoly.q_minus_one() ** 2 == LaurentPoly({2: 1, 1: -2, 0: 1})
        assert LaurentPoly.q_power(-3, 2) == LaurentPoly({-3: 2})
        with pytest.raises(ValueError, match="nonnegative"):
            q ** -1

    def test_text_and_json_round_trips(self):
        f = LaurentPoly({2: 3, -1: -1, 0: 1})
        assert LaurentPoly.from_text("3*q^2 - q^-1 + 1") == f
        assert LaurentPoly.from_json(f.to_json()) == f
        assert f.to_json() == {"-1": -1, "0": 1, "2": 3}
        rng = random.Random(13)
        for _ in range(50):
            g = random_poly(rng)
            assert LaurentPoly.from_text(str(g)) == g

    @pytest.mark.parametrize(
        "text, message",
        [
            ("q^2 3", "missing \\+/- between terms"),
            ("3^2", "constant with exponent"),
            ("q + x", "bad Laurent polynomial text"),
        ],
    )
    def test_unparseable_text_is_refused(self, text, message):
        with pytest.raises(ValueError, match=message):
            LaurentPoly.from_text(text)

    def test_json_that_is_not_an_object_is_refused(self):
        with pytest.raises(ValueError, match="must be an object"):
            LaurentPoly.from_json([1])

    def test_cancelling_results_are_zero(self):
        q = LaurentPoly({1: 1})
        diff = (q + 1) * (q - 1) - (q * q - 1)
        assert diff.coeffs == {}
        assert hash(diff) == hash(0)
        product = LaurentPoly({1: 1, 0: 1}) * LaurentPoly({1: 1, 0: -1}) * LaurentPoly.zero()
        assert product.coeffs == {}
        assert hash(product) == 0
        assert (q - q).coeffs == {}
        assert (LaurentPoly({2: 3}) + LaurentPoly({2: -3, 0: 1})).coeffs == {0: 1}

    def test_one_is_a_two_sided_identity(self):
        rng = random.Random(14)
        for _ in range(100):
            f = random_poly(rng)
            assert f * LaurentPoly.one() == f
            assert LaurentPoly.one() * f == f
            assert (f * 1).coeffs == f.coeffs == (1 * f).coeffs

    def test_shared_constants_survive_a_superinduce_sweep(self):
        from superchar.ring import restrict, superinduce
        from superchar.setpart import PartitionIndex, enumerate_compatible, set_partitions

        for p, n in ((2, 4), (3, 3)):
            full = PartitionIndex.full(n)
            for parts in set_partitions(range(1, n + 1)):
                K = PartitionIndex(n, parts)
                for mu in enumerate_compatible(K, p):
                    superinduce(mu, K, p)
                for lam in enumerate_compatible(full, p):
                    restrict(lam, K, p)
        assert LaurentPoly.one().coeffs == {0: 1}
        assert LaurentPoly.q_minus_one().coeffs == {1: 1, 0: -1}

    def test_int_evaluation_matches_fraction_evaluation(self):
        rng = random.Random(15)
        for _ in range(300):
            f = random_poly(rng) + LaurentPoly({-rng.randrange(1, 4): rng.randrange(1, 9)})
            x = rng.choice([-3, -2, -1, 1, 2, 3, 5])
            value = f.eval_at(x)
            assert value == f.eval_at(Fraction(x))
            if Fraction(value).denominator == 1:
                assert type(value) is int
        # integral although a negative exponent is present
        value = LaurentPoly({-1: 4, 1: 1}).eval_at(2)
        assert value == 4 and type(value) is int
        assert type(LaurentPoly({-2: 1}).eval_at(2)) is Fraction

    def test_evaluation_refuses_a_float_point(self):
        q = LaurentPoly({1: 1})
        with pytest.raises(TypeError, match="float"):
            q.eval_at(0.1)
        with pytest.raises(TypeError, match="float"):
            LaurentPoly({-1: 1}).eval_at(2.0)
        assert q.eval_at(3) == 3 and type(q.eval_at(3)) is int
        assert q.eval_at(Fraction(1, 10)) == Fraction(1, 10)

    def test_constructor_refuses_non_int_coefficients(self):
        with pytest.raises(TypeError):
            LaurentPoly({0: 1.0})
        with pytest.raises(TypeError):
            LaurentPoly({1: Fraction(1, 2)})
        with pytest.raises(TypeError):
            LaurentPoly({1: Fraction(2)})
        with pytest.raises(TypeError):
            LaurentPoly({0.5: 1})

    def test_a_bool_is_not_an_int_coefficient_or_exponent(self):
        # a bool would write back as JSON true, or as the key "True", which
        # from_json cannot read: so JSON would not round-trip
        for make in (
            lambda: LaurentPoly({True: 1}),
            lambda: LaurentPoly({0: True}),
            lambda: LaurentPoly.from_json({"0": True}),
            lambda: LaurentPoly.const(False),
            # q^2 and q, each read off True as 1
            lambda: LaurentPoly({1: 1}).shift(True),
            lambda: LaurentPoly({1: 1}) ** True,
        ):
            with pytest.raises(TypeError, match="a Laurent exponent or coefficient must be an int"):
                make()


class TestCyclotomic:
    def test_theta_is_a_character(self):
        # theta: a -> zeta_p^a is a character of F_p with values summing to 0
        for p in (2, 3, 5, 7):
            theta = [Cyclotomic.zeta_power(p, a) for a in range(p)]
            assert theta[0] == Cyclotomic.one(p)
            for a in range(p):
                for b in range(p):
                    assert theta[a] * theta[b] == theta[(a + b) % p]
                assert theta[a].conj() == theta[-a % p]
            total = Cyclotomic.zero(p)
            for a in range(p):
                total = total + theta[a]
            assert total == Cyclotomic.zero(p)

    def test_zeta_powers_multiply_by_exponent_addition(self):
        for p in (2, 3, 5, 7):
            for i in range(p):
                for j in range(p):
                    got = Cyclotomic.zeta_power(p, i) * Cyclotomic.zeta_power(p, j)
                    assert got == Cyclotomic.zeta_power(p, (i + j) % p)

    def test_conjugation_is_an_involution(self):
        for p in (3, 5):
            x = Cyclotomic.zeta_power(p, 1) + Cyclotomic.from_rational(p, Fraction(2, 3))
            assert x.conj().conj() == x

    def test_rational_embedding(self):
        r = Fraction(-7, 3)
        x = Cyclotomic.from_rational(5, r)
        assert x.as_rational() == r
        assert Cyclotomic.zeta_power(5, 2).as_rational() is None

    def test_json_round_trip(self):
        x = Cyclotomic.zeta_power(5, 2) + Cyclotomic.from_rational(5, Fraction(1, 2))
        assert Cyclotomic.from_json(x.to_json()) == x

    @pytest.mark.parametrize(
        "obj, message",
        [([1], "must be an object"), ({}, "no 'p' field"), ({"p": 3}, "no 'coords' field")],
    )
    def test_json_that_is_not_a_full_object_is_refused(self, obj, message):
        with pytest.raises(ValueError, match=message):
            Cyclotomic.from_json(obj)


class TestCyclotomicBoundary:
    """The public constructors validate; arithmetic stores an integral
    coordinate as an int, which no output tells from a Fraction."""

    def test_constructors_refuse_a_non_prime_order(self):
        for p in (0, 1, 4, 6, 9):
            with pytest.raises(ValueError, match="prime"):
                Cyclotomic(p, [0] * 3)
            with pytest.raises(ValueError, match="prime"):
                Cyclotomic.zero(p)
            with pytest.raises(ValueError, match="prime"):
                Cyclotomic.one(p)
            with pytest.raises(ValueError, match="prime"):
                Cyclotomic.from_rational(p, Fraction(1, 2))
            with pytest.raises(ValueError, match="prime"):
                Cyclotomic.zeta_power(p, 1)

    def test_constructor_refuses_a_wrong_coordinate_count(self):
        for p, coords in ((2, []), (2, [1, 0]), (3, [1]), (5, [1, 2, 3, 4, 5])):
            with pytest.raises(ValueError, match="coordinates"):
                Cyclotomic(p, coords)

    def test_constructor_refuses_a_non_rational_coordinate(self):
        with pytest.raises(TypeError):
            Cyclotomic(3, [1, None])

    def test_constructors_refuse_floats(self):
        # Fraction(0.1) is the binary fraction 3602879701896397/36028797018963968
        with pytest.raises(TypeError, match="float"):
            Cyclotomic(3, [Fraction(1, 2), 0.1])
        with pytest.raises(TypeError, match="float"):
            Cyclotomic.from_rational(2, 0.1)
        with pytest.raises(TypeError, match="float"):
            Cyclotomic.from_json({"p": 3, "coords": ["1/2", 0.5]})
        assert Cyclotomic.from_rational(2, "1/10").coords == (Fraction(1, 10),)
        assert type(Cyclotomic(3, [Fraction(4, 2), "3/6"]).coords[0]) is int
        # the helpers refuse what the constructors refuse, rather than truncate it
        for make in (
            lambda: Cyclotomic.from_json({"p": 3.7, "coords": [1, 0]}),
            lambda: LaurentPoly.const(1.5),
            lambda: LaurentPoly.const(Fraction(1, 2)),
            lambda: LaurentPoly.q_power(1.9, 2.5),
            lambda: LaurentPoly.q_power(1, 2.5),
            lambda: LaurentPoly.from_json({"0": 1.5}),
            lambda: LaurentPoly.from_json({1.5: 1}),
        ):
            with pytest.raises(TypeError):
                make()
        # JSON exponent keys are strings
        assert LaurentPoly.from_json({"-1": 2, "0": 1}) == LaurentPoly({-1: 2, 0: 1})

    def test_a_bool_is_not_a_rational(self):
        # JSON true read as the coordinate 1
        for make in (
            lambda: rational(True),
            lambda: Cyclotomic.from_rational(3, True),
            lambda: Cyclotomic.from_json({"p": 3, "coords": [True, 0]}),
        ):
            with pytest.raises(TypeError, match="^exact coefficients only, not the bool True$"):
                make()

    def test_a_zeta_exponent_is_an_int(self):
        # True was read as 1, giving z; 1.5 failed inside as a list index
        for k in (True, 1.5):
            with pytest.raises(TypeError, match="^a zeta exponent must be an int, got %r$" % k):
                Cyclotomic.zeta_power(3, k)

    def test_a_zero_denominator_is_refused(self):
        for make in (
            lambda: Cyclotomic.from_json({"p": 3, "coords": ["1/0", "0"]}),
            lambda: Cyclotomic(3, [0, "2/0"]),
            lambda: Cyclotomic.from_rational(2, "1/0"),
        ):
            with pytest.raises(ValueError, match="zero denominator"):
                make()

    def test_as_rational_is_a_fraction(self):
        for x in (
            Cyclotomic.one(3),
            Cyclotomic.zeta_power(2, 1),
            Cyclotomic.from_rational(5, 4) * Cyclotomic.from_rational(5, Fraction(1, 2)),
            Cyclotomic.zeta_power(3, 1) + Cyclotomic.zeta_power(3, 2),
        ):
            assert type(x.coords[0]) is int
            assert type(x.as_rational()) is Fraction
        assert 1 / Cyclotomic.from_rational(3, 4).as_rational() == Fraction(1, 4)

    def test_arithmetic_results_match_fraction_built_values(self):
        for p in (2, 3, 5):
            zeta = Cyclotomic.zeta_power(p, 1)
            half = Cyclotomic.from_rational(p, Fraction(1, 2))
            reached = [
                Cyclotomic.one(p) + Cyclotomic.one(p),
                zeta * zeta.conj(),
                (half + half) * zeta - zeta,
                half * 4 + zeta,
                -(half * Fraction(6)),
                Fraction(1, 3) * (zeta + 2),
            ]
            for x in reached:
                built = Cyclotomic(p, [Fraction(c) for c in x.coords])
                assert built == x and x == built
                assert hash(built) == hash(x)
                assert str(built) == str(x)
                assert built.to_json() == x.to_json()
                assert Cyclotomic.from_json(x.to_json()) == x
            assert str(half * 4 + zeta) == str(Cyclotomic(p, [2] + [0] * (p - 2)) + zeta)


class TestEqualityAndHash:
    """Values that compare equal hash alike, so sets and dict keys agree
    with ``==``."""

    def test_a_rational_element_hashes_as_its_value(self):
        for p in (2, 3, 5):
            for r in (0, 1, -4, Fraction(1, 2), Fraction(-7, 3)):
                x = Cyclotomic.from_rational(p, r)
                assert x == r and hash(x) == hash(r)
                assert len({x, r}) == 1
        assert len({Cyclotomic.one(2), 1}) == 1
        assert len({Cyclotomic.zero(5), Cyclotomic.one(5) - 1, 0}) == 1

    def test_orders_meet_in_the_rationals(self):
        assert Cyclotomic.one(2) == Cyclotomic.one(3)
        assert len({Cyclotomic.from_rational(p, Fraction(1, 2)) for p in (2, 3, 5)}) == 1
        assert Cyclotomic.zeta_power(3, 1) != Cyclotomic.zeta_power(5, 1)
        assert Cyclotomic.zeta_power(3, 1) != Cyclotomic.one(5)

    def test_a_constant_laurent_polynomial_hashes_as_its_int(self):
        for c in (0, 1, -3):
            x = LaurentPoly.const(c)
            assert x == c and hash(x) == hash(c)
            assert len({x, c}) == 1
        assert hash(LaurentPoly.one()) == hash(1)
        assert LaurentPoly({1: 1}) != 1


def test_is_prime_small_values():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)
