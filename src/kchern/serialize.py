"""JSON formats for forms, idempotents, connections, and paths.

Rationals serialize as "num/den" strings (denominator omitted when 1);
Poly1 coefficients serialize as {"t^k": "num/den"} maps.  Every emitted
object reloads to an equal in-memory value.
"""

from __future__ import annotations

from .algebra import AlgElement, Algebra, algebra_from_json, algebra_to_json
from .connections import Connection, Idempotent, Mat
from .exactmath import Poly1, rat_from_str, rat_to_str
from .transgression import PolyPath
from .uforms import AbClass, FormError, UForm, word_degree

__all__ = [
    "algebra_to_json", "algebra_from_json",
    "coeff_to_json", "coeff_from_json",
    "form_to_json", "form_from_json",
    "abclass_to_json",
    "idempotent_to_json", "idempotent_from_json",
    "connection_to_json", "connection_from_json",
    "path_to_json", "path_from_json",
]


def coeff_to_json(c):
    if isinstance(c, Poly1):
        return {"t^%d" % k: rat_to_str(c.coeffs[(k,)])
                for (k,) in sorted(c.coeffs)}
    return rat_to_str(c)


def coeff_from_json(data):
    if isinstance(data, str):
        return rat_from_str(data)
    if isinstance(data, dict):
        coeffs = {}
        for key, val in data.items():
            k = int(key[2:]) if key.startswith("t^") else -1
            if k < 0:
                raise FormError("polynomial keys must look like 't^k'")
            coeffs[(k,)] = rat_from_str(val)
        return Poly1(coeffs)
    raise FormError("bad coefficient payload %r" % (data,))


def form_to_json(u: UForm) -> list:
    out = []
    for w in sorted(u.terms, key=lambda w: (len(w), w)):
        out.append({
            "degree": word_degree(w),
            "word": list(w),
            "coeff": coeff_to_json(u.terms[w]),
        })
    return out


def form_from_json(alg: Algebra, data: list) -> UForm:
    terms = {}
    for item in data:
        w = tuple(item["word"])
        if "degree" in item and item["degree"] != word_degree(w):
            raise FormError("degree does not match word length")
        c = coeff_from_json(item["coeff"])
        if c:
            terms[w] = terms.get(w, 0) + c if w in terms else c
    return UForm(alg, terms)


def abclass_to_json(c: AbClass) -> list:
    return form_to_json(c.lift())


def elem_to_json(e: AlgElement) -> list:
    return [rat_to_str(c) for c in e.vec]


def elem_from_json(alg: Algebra, data) -> AlgElement:
    return AlgElement(alg, [rat_from_str(c) for c in data])


def idempotent_to_json(p: Idempotent) -> dict:
    return {
        "size": p.size,
        "entries": [[elem_to_json(e) for e in row]
                    for row in p.mat.entries],
    }


def idempotent_from_json(alg: Algebra, data: dict) -> Idempotent:
    mat = Mat([[elem_from_json(alg, e) for e in row]
               for row in data["entries"]])
    return Idempotent(alg, mat)


def _theta_to_json(theta: Mat) -> list:
    return [[form_to_json(e) for e in row] for row in theta.entries]


def _theta_from_json(alg: Algebra, data) -> Mat:
    return Mat([[form_from_json(alg, e) for e in row] for row in data])


def connection_to_json(c: Connection) -> dict:
    return {
        "idempotent": idempotent_to_json(c.p),
        "theta": _theta_to_json(c.theta),
    }


def connection_from_json(alg: Algebra, data: dict) -> Connection:
    p = idempotent_from_json(alg, data["idempotent"])
    return Connection(p, _theta_from_json(alg, data["theta"]))


def path_to_json(path: PolyPath) -> dict:
    return {
        "idempotent": idempotent_to_json(path.p),
        "theta": _theta_to_json(path.theta),
    }


def path_from_json(alg: Algebra, data: dict) -> PolyPath:
    p = idempotent_from_json(alg, data["idempotent"])
    return PolyPath(p, _theta_from_json(alg, data["theta"]))
