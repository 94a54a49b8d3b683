"""JSON round trips for all emitted objects."""

import json
import random
from fractions import Fraction

from kchern.connections import random_connection, random_idempotent
from kchern.exactmath import Poly1
from kchern.fixtures import FIXTURE_NAMES, make_fixture
from kchern.serialize import (abclass_to_json, algebra_from_json,
                              algebra_to_json, coeff_from_json,
                              coeff_to_json, connection_from_json,
                              connection_to_json, form_from_json,
                              form_to_json, idempotent_from_json,
                              idempotent_to_json, path_from_json,
                              path_to_json)
from kchern.transgression import straight_line
from kchern.uforms import project_ab
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


class TestForms:
    def test_round_trip(self):
        rng = random.Random(60)
        for name in FIXTURE_NAMES:
            alg = make_fixture(name)
            for _ in range(5):
                w = rand_homogeneous(alg, rng, rng.randint(0, 3), terms=3)
                data = through_json(form_to_json(w))
                assert form_from_json(alg, data) == w

    def test_abclass_serializes_lift(self):
        alg = make_fixture("QxQ")
        from kchern.uforms import UForm
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
            pdata = through_json(path_to_json(path))
            path2 = path_from_json(alg, pdata)
            assert path2.theta.entries == path.theta.entries
