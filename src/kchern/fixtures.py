"""Builtin fixture algebras shipped with the tool: Q, the dual numbers,
Q[x]/(x^3), QxQ, M2(Q), and the group algebra Q[C2]."""

from __future__ import annotations

from .algebra import (Algebra, make_group_algebra, make_matrix_algebra,
                      make_product, make_truncated_poly)

FIXTURE_NAMES = ("Q", "dual", "x3", "QxQ", "M2", "C2")


def make_fixture(name: str, degree_cap: int = 8) -> Algebra:
    if name == "Q":
        return make_truncated_poly(1, degree_cap=degree_cap)
    if name == "dual":
        return make_truncated_poly(2, degree_cap=degree_cap)
    if name == "x3":
        return make_truncated_poly(3, degree_cap=degree_cap)
    if name == "QxQ":
        return make_product(make_truncated_poly(1, degree_cap=degree_cap),
                            make_truncated_poly(1, degree_cap=degree_cap),
                            degree_cap=degree_cap)
    if name == "M2":
        return make_matrix_algebra(2, degree_cap=degree_cap)
    if name == "C2":
        return make_group_algebra([[0, 1], [1, 0]], names=["1", "g"],
                                  degree_cap=degree_cap)
    raise ValueError("unknown fixture %r (choose from %s)"
                     % (name, ", ".join(FIXTURE_NAMES)))
