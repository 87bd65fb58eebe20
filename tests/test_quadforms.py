import pytest

import heckedist.quadforms
from heckedist.errors import InvalidParameter, InvariantViolation
from heckedist.quadforms import (
    class_numbers_by_form_census,
    cycles,
    is_reduced,
    principal_form,
    reduce_form,
    reduced_forms,
    rho,
)


def discriminant(f):
    return f[1] ** 2 - 4 * f[0] * f[2]


def test_reduced_forms_disc_5():
    forms = reduced_forms(5)
    assert forms == [(-1, 1, 1), (1, 1, -1)]


def test_rho_preserves_discriminant_and_reducedness():
    for Delta in (5, 12, 40, 136, 328):
        for f in reduced_forms(Delta):
            g = rho(f, Delta)
            assert discriminant(g) == Delta
            assert is_reduced(g, Delta)


def test_cycles_partition_all_reduced_forms():
    for Delta in (5, 8, 12, 40, 60, 136):
        cycs = cycles(Delta)
        flat = [f for cyc in cycs for f in cyc]
        assert sorted(flat) == reduced_forms(Delta)


def test_principal_form_is_reduced():
    for Delta in (5, 8, 12, 40, 136, 328):
        f = principal_form(Delta)
        assert f[0] == 1 and is_reduced(f, Delta)
        assert discriminant(f) == Delta


def test_reduce_form_reaches_reduced(monkeypatch):
    f = reduce_form((-1, -6, 1), 40)
    assert is_reduced(f, 40)
    monkeypatch.setattr(heckedist.quadforms, "REDUCE_STEPS", 1)
    with pytest.raises(InvariantViolation):
        reduce_form((-1, -6, 1), 40)


@pytest.mark.parametrize("Delta", [0, -3, 36, 41 * 41, 10, 7])
def test_census_rejects_non_discriminants(Delta):
    # squares, non-positive values and values = 2, 3 mod 4
    with pytest.raises(InvalidParameter):
        class_numbers_by_form_census(Delta)


@pytest.mark.parametrize(
    "Delta,h_plus,h",
    [(5, 1, 1), (8, 1, 1), (12, 2, 1), (40, 2, 2), (136, 4, 2), (328, 4, 4), (316, 6, 3)],
)
def test_census_known_values(Delta, h_plus, h):
    assert class_numbers_by_form_census(Delta) == (h_plus, h)
