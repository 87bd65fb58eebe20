"""Indefinite binary quadratic forms of positive discriminant.

Cycles of reduced forms give the narrow class number, and orbits of cycles
under total negation give the wide class number.  numberfield.py keys ideal
classes by walking one cycle with `rho`; the census here enumerates every
reduced form instead, independently of the ideal/unit machinery, and serves
as a cross-check oracle for it.
"""

from __future__ import annotations

import math

from .errors import InvalidParameter, InvariantViolation

Form = tuple[int, int, int]

REDUCE_STEPS = 512  # most rho-steps from a form to the reduced forms


def is_reduced(f: Form, Delta: int) -> bool:
    """0 < b < sqrt(Delta) and sqrt(Delta) - b < 2|a| < sqrt(Delta) + b, exactly."""
    a, b, _ = f
    if b <= 0 or b * b >= Delta:
        return False
    ta = 2 * abs(a)
    if ta >= b:
        if (ta - b) ** 2 >= Delta:
            return False
    if (ta + b) ** 2 <= Delta:
        return False
    return True


def rho(f: Form, Delta: int) -> Form:
    """Reduction step (a,b,c) -> (c, b', c'); reduced forms walk their cycle."""
    _, b, c = f
    sq = math.isqrt(Delta)
    m = 2 * abs(c)
    r = (-b) % m
    if abs(c) > sq:
        b1 = r if r <= abs(c) else r - m
    else:
        b1 = sq - ((sq - r) % m)
    c1 = (b1 * b1 - Delta) // (4 * c)
    return (c, b1, c1)


def reduce_form(f: Form, Delta: int) -> Form:
    """The first reduced form on the rho-walk from f; InvariantViolation after REDUCE_STEPS."""
    for _ in range(REDUCE_STEPS):
        if is_reduced(f, Delta):
            return f
        f = rho(f, Delta)
    raise InvariantViolation(f"form reduction did not terminate for {f}")


def reduced_forms(Delta: int) -> list[Form]:
    """All reduced forms of discriminant Delta (Delta > 0, not a square, 0 or 1 mod 4)."""
    if Delta <= 0 or math.isqrt(Delta) ** 2 == Delta or Delta % 4 > 1:
        raise InvalidParameter(f"{Delta} is not a positive non-square discriminant")
    out = []
    b = 2 - (Delta % 2)  # smallest positive b with b = Delta mod 2
    while b * b < Delta:
        ac = (b * b - Delta) // 4  # negative, exact since b^2 = Delta mod 4
        for a in range(1, abs(ac) + 1):
            if ac % a:
                continue
            for aa in (a, -a):
                f = (aa, b, ac // aa)
                if is_reduced(f, Delta):
                    out.append(f)
        b += 2
    return sorted(out)


def cycles(Delta: int) -> list[list[Form]]:
    """Partition of the reduced forms into rho-cycles."""
    remaining = set(reduced_forms(Delta))
    out = []
    while remaining:
        start = min(remaining)
        cyc = [start]
        f = rho(start, Delta)
        while f != start:
            if not is_reduced(f, Delta):
                raise InvariantViolation(f"rho left the reduced forms at {f}")
            cyc.append(f)
            f = rho(f, Delta)
        for g in cyc:
            remaining.discard(g)
        out.append(cyc)
    return out


def principal_form(Delta: int) -> Form:
    """The reduced principal form (1, b0, (b0^2 - Delta)/4)."""
    sq = math.isqrt(Delta)
    b0 = sq if (sq - Delta) % 2 == 0 else sq - 1
    f = (1, b0, (b0 * b0 - Delta) // 4)
    if not is_reduced(f, Delta):
        raise InvariantViolation(f"principal form {f} is not reduced")
    return f


def class_numbers_by_form_census(Delta: int) -> tuple[int, int]:
    """(narrow class number, wide class number) of discriminant Delta.

    Narrow classes are rho-cycles of reduced forms.  The wide class group is
    the narrow one modulo the class of the negated principal form (the image
    of a negative-norm scaling), whose order is 1 or 2.
    """
    cycs = cycles(Delta)
    rep_to_cycle = {}
    for i, cyc in enumerate(cycs):
        for f in cyc:
            rep_to_cycle[f] = i
    a, b, c = principal_form(Delta)
    principal_cycle = rep_to_cycle[(a, b, c)]
    kernel_order = 1 if rep_to_cycle[reduce_form((-a, -b, -c), Delta)] == principal_cycle else 2
    h_plus = len(cycs)
    if h_plus % kernel_order:
        raise InvariantViolation(f"{h_plus} narrow classes over a kernel of order {kernel_order}")
    return h_plus, h_plus // kernel_order
