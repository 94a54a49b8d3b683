"""JSON formats for forms, idempotents, connections, and paths (a path is
written as the connection it is, by connection_to_json).

Rationals serialize as "num/den" strings (denominator omitted when 1);
Poly1 coefficients serialize as {"t^k": "num/den"} maps.  Every emitted
object reloads to an equal in-memory value.
"""

from __future__ import annotations

from .algebra import AlgElement, Algebra, algebra_from_json, algebra_to_json
from .connections import Connection, Idempotent, Mat
from .exactmath import Poly1, rat_from_str, rat_to_str
from .transgression import straight_line
from .uforms import AbClass, FormError, UForm, word_degree

__all__ = [
    "algebra_to_json", "algebra_from_json",
    "coeff_to_json", "coeff_from_json",
    "form_to_json", "form_from_json",
    "abclass_to_json",
    "idempotent_to_json", "idempotent_from_json",
    "connection_to_json", "connection_from_json",
    "is_connection_pair", "path_from_json",
]


def coeff_to_json(c):
    if isinstance(c, Poly1):
        return {"t^%d" % k: rat_to_str(c.coeffs[(k,)])
                for (k,) in sorted(c.coeffs)}
    return rat_to_str(c)


def coeff_from_json(data):
    """A "num/den" string or a {"t^k": "num/den"} map; anything else raises
    TypeError or ValueError."""
    if isinstance(data, str):
        return rat_from_str(data)
    if isinstance(data, dict):
        coeffs = {}
        for key, val in data.items():
            if not (key.startswith("t^") and key[2:].isdecimal()):
                raise ValueError("polynomial keys must look like 't^k', "
                                 "not %r" % (key,))
            coeffs[(int(key[2:]),)] = rat_from_str(val)
        return Poly1(coeffs)
    raise TypeError("bad coefficient payload %r" % (data,))


def form_to_json(u) -> list:
    """The terms of a UForm or an AbClass, by word length, then word."""
    out = []
    for w in sorted(u.terms, key=lambda w: (len(w), w)):
        out.append({
            "degree": word_degree(w),
            "word": list(w),
            "coeff": coeff_to_json(u.terms[w]),
        })
    return out


def form_from_json(alg: Algebra, data: list) -> UForm:
    """The form of a term list; UForm sums repeated words.  A word that is
    not a non-empty list of integers (bools excluded) raises ValueError."""
    pairs = []
    for item in data:
        w = item["word"]
        if not (isinstance(w, list) and w and all(type(i) is int for i in w)):
            raise ValueError("a word is a non-empty list of integers, not %r"
                             % (w,))
        w = tuple(w)
        if "degree" in item and item["degree"] != word_degree(w):
            raise FormError("degree does not match word length")
        pairs.append((w, coeff_from_json(item["coeff"])))
    return UForm(alg, pairs)


def abclass_to_json(c: AbClass) -> list:
    return form_to_json(c)


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
    """The idempotent of {"entries", optionally "size"}; a "size" that is
    not the number of rows raises ValueError."""
    mat = Mat([[elem_from_json(alg, e) for e in row]
               for row in data["entries"]])
    if "size" in data and (type(data["size"]) is not int
                           or data["size"] != mat.size):
        raise ValueError("idempotent size %r does not match its %d rows"
                         % (data["size"], mat.size))
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


def is_connection_pair(data) -> bool:
    """Whether a path payload is a two-connection one."""
    return "theta0" in data and "theta1" in data


def path_from_json(alg: Algebra, data: dict) -> Connection:
    """A polynomial path {"idempotent", "theta"} (written by
    connection_to_json), or the straight line of a two-connection payload
    {"idempotent", "theta0", "theta1"}."""
    p = idempotent_from_json(alg, data["idempotent"])
    if is_connection_pair(data):
        c0, c1 = (Connection(p, _theta_from_json(alg, data[key]))
                  for key in ("theta0", "theta1"))
        return straight_line(c0, c1)
    return Connection(p, _theta_from_json(alg, data["theta"]), 1)
