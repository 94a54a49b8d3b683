"""JSON round trips for all emitted objects."""

import json
import random
from fractions import Fraction

import pytest

from kchern.connections import random_connection, random_idempotent
from kchern.exactmath import Poly1, Poly2
from kchern.fixtures import FIXTURE_NAMES, make_fixture
from kchern.serialize import (abclass_to_json, algebra_from_json,
                              algebra_to_json, coeff_from_json,
                              coeff_to_json, connection_from_json,
                              connection_to_json, form_from_json,
                              form_to_json, idempotent_from_json,
                              idempotent_to_json, path_from_json)
from kchern.transgression import constant_path, straight_line
from kchern.uforms import FormError, UForm, project_ab
from tests.test_uforms import rand_homogeneous


def through_json(obj):
    return json.loads(json.dumps(obj))


class TestCoefficients:
    def test_rational(self):
        for q in (Fraction(0), Fraction(7), Fraction(-3, 4)):
            assert coeff_from_json(through_json(coeff_to_json(q))) == q

    def test_poly1(self):
        p = Poly1({(0,): Fraction(1, 2), (2,): Fraction(-3)})
        assert coeff_from_json(through_json(coeff_to_json(p))) == p

    def test_keys_are_the_ones_coeff_to_json_writes(self):
        p = Poly1({(0,): 1, (10,): Fraction(1, 2)})
        assert coeff_to_json(p) == {"t^0": "1", "t^10": "1/2"}
        assert coeff_from_json({"t^0": "1", "t^10": "1/2"}) == p
        # each of these would name an exponent coeff_to_json writes as
        # "t^1" (or "t^0"); two of them in one map lost a term
        for key in ("t^01", "t^00", "t^\u0661", "t^\uff11", "t^+1", "t^ 1",
                    "t^1 ", "t^\u00b9"):
            with pytest.raises(ValueError, match="ASCII digits"):
                coeff_from_json({"t^1": "1", key: "2"})
            with pytest.raises(ValueError, match="ASCII digits"):
                coeff_from_json({key: "2"})

    def test_only_polynomials_in_t_have_a_format(self):
        u = UForm(make_fixture("dual"), {(1,): Poly2({(1, 0): 1})})
        with pytest.raises(FormError, match=r"t\^k"):
            form_to_json(u)
        rng = random.Random(62)
        p = random_idempotent(make_fixture("dual"), 2, rng)
        c1, c2, c3 = (random_connection(p, rng) for _ in range(3))
        bigon = straight_line(constant_path(c1), straight_line(c2, c3))
        assert bigon.R == 2 and any(
            isinstance(c, Poly2) for e in bigon.theta.entries[0]
            for c in e.terms.values())
        with pytest.raises(FormError, match=r"t\^k"):
            connection_to_json(bigon)


class TestForms:
    def test_round_trip(self):
        rng = random.Random(60)
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            for _ in range(5):
                w = rand_homogeneous(alg, rng, rng.randint(0, 3), terms=3)
                data = through_json(form_to_json(w))
                assert form_from_json(alg, data) == w

    def test_repeated_words_are_summed(self):
        alg = make_fixture("dual")

        def term(word, coeff):
            return {"degree": len(word) - 1, "word": word, "coeff": coeff}

        u = form_from_json(alg, [term([0, 1], "1/2"), term([1], "1"),
                                 term([0, 1], "3/2"),
                                 term([1], {"t^1": "2"})])
        assert u.terms == {(0, 1): 2, (1,): Poly1({(0,): 1, (1,): 2})}
        assert type(u.terms[(0, 1)]) is int
        v = form_from_json(alg, [term([0, 1], "1/2"), term([1], "1"),
                                 term([0, 1], "-1/2")])
        assert v.terms == {(1,): 1}

    def test_degree_must_be_an_integer(self):
        # true == 1 and 0.0 == 0, but neither is an integer degree
        alg = make_fixture("dual")
        for degree, word in ((True, [0, 1]), (0.0, [1]), (1.0, [1, 1]),
                             ("1", [0, 1])):
            with pytest.raises(ValueError, match="degree is an integer"):
                form_from_json(alg, [{"degree": degree, "word": word,
                                      "coeff": "1"}])
        with pytest.raises(FormError, match="does not match"):
            form_from_json(alg, [{"degree": 2, "word": [0, 1],
                                  "coeff": "1"}])

    def test_abclass_serializes_lift(self):
        alg = make_fixture("QxQ")
        e = UForm.from_element(alg.basis(1))
        cls = project_ab(e * e.d() * e.d())
        data = through_json(abclass_to_json(cls))
        assert project_ab(form_from_json(alg, data)) == cls


class TestAlgebraObjects:
    def test_algebra(self):
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            assert algebra_from_json(through_json(algebra_to_json(alg))) \
                == alg

    def test_idempotent_connection_path(self):
        rng = random.Random(61)
        for name in ("dual", "QxQ", "M2"):
            alg = make_fixture(name)
            p = random_idempotent(alg, 2, rng)
            data = through_json(idempotent_to_json(p))
            assert idempotent_from_json(alg, data) == p
            c = random_connection(p, rng)
            cdata = through_json(connection_to_json(c))
            c2 = connection_from_json(alg, cdata)
            assert c2.theta.entries == c.theta.entries
            path = straight_line(c, random_connection(p, rng))
            pdata = through_json(connection_to_json(path))
            path2 = path_from_json(alg, pdata)
            assert path2.theta.entries == path.theta.entries
