"""The library's immutable value types: checks, messages, equality, hashing,
repr, and the pickle and copy round trips of every type whose fields allow
one."""

import copy
import pickle

import pytest

from symdesign.algebra import Factorization, PrimePower
from symdesign.constructions import DifferenceSetSpec, NamedInstance, cyclic
from symdesign.design import DesignParams, IncidenceStructure
from symdesign.elimination import AdmissiblePair, CatalogRow, GroupFamilySpec, RowReport
from symdesign.perm import BlockSystem

ROW = ("t1-fano", "PSL_3(2)", "S_4", 7, 168, 2, "t1")


def make(kind):
    """A fresh instance of each type, equal field by field on every call."""
    return {
        "Factorization": lambda: Factorization(12, ((2, 2), (3, 1))),
        "PrimePower": lambda: PrimePower(2, 3),
        "BlockSystem": lambda: BlockSystem(6, (0, 1, 0, 1, 0, 1)),
        "DesignParams": lambda: DesignParams(7, 3, 1),
        "GroupFamilySpec": lambda: GroupFamilySpec("PSU", 3, PrimePower(3, 1)),
        "AdmissiblePair": lambda: AdmissiblePair(4, 2),
        "CatalogRow": lambda: CatalogRow(*ROW),
        "RowReport": lambda: RowReport(CatalogRow(*ROW), (AdmissiblePair(4, 2),), "PASS"),
    }[kind]()


PICKLABLE = ["Factorization", "PrimePower", "BlockSystem", "DesignParams",
             "GroupFamilySpec", "AdmissiblePair", "CatalogRow", "RowReport"]


# --- checks and their messages -------------------------------------------------


def test_factorization_checks_the_product():
    assert Factorization(1, ()).factors == ()
    with pytest.raises(ValueError, match="^factor list does not reconstruct the value$"):
        Factorization(12, ((2, 2), (3, 2)))


def test_prime_power_checks_exponent_then_prime():
    assert PrimePower(3, 2).q == 9
    with pytest.raises(ValueError, match="^exponent must be positive$"):
        PrimePower(4, 0)  # the exponent is checked first
    with pytest.raises(ValueError, match="^4 is not prime$"):
        PrimePower(4, 1)
    with pytest.raises(ValueError, match="^12 is not a prime power$"):
        PrimePower.of(12)
    assert PrimePower.of(27) == PrimePower(3, 3)


def test_design_params_check_the_counting_identity():
    assert DesignParams(11, 5, 2).nontrivial
    with pytest.raises(ValueError, match=r"^k\(k-1\) != lambda\(v-1\)$"):
        DesignParams(7, 3, 2)


@pytest.mark.parametrize("family, n, q, message", [
    ("E8", 8, 2, "unknown family 'E8'"),
    ("PSL", 1, 2, r"PSL_n\(q\) needs n >= 2 and \(n,q\) != \(2,2\),\(2,3\)"),
    ("PSL", 2, 2, r"PSL_n\(q\) needs n >= 2 and \(n,q\) != \(2,2\),\(2,3\)"),
    ("PSL", 2, 3, r"PSL_n\(q\) needs n >= 2 and \(n,q\) != \(2,2\),\(2,3\)"),
    ("PSU", 2, 4, r"PSU_n\(q\) needs n >= 3 and \(n,q\) != \(3,2\)"),
    ("PSU", 3, 2, r"PSU_n\(q\) needs n >= 3 and \(n,q\) != \(3,2\)"),
    ("PSp", 2, 3, r"PSp_n\(q\) needs even n >= 4 and \(n,q\) != \(4,2\)"),
    ("PSp", 5, 3, r"PSp_n\(q\) needs even n >= 4 and \(n,q\) != \(4,2\)"),
    ("PSp", 4, 2, r"PSp_n\(q\) needs even n >= 4 and \(n,q\) != \(4,2\)"),
    ("OmegaOdd", 5, 3, r"Omega_n\(q\) needs odd n >= 7 and odd q"),
    ("OmegaOdd", 8, 3, r"Omega_n\(q\) needs odd n >= 7 and odd q"),
    ("OmegaOdd", 7, 4, r"Omega_n\(q\) needs odd n >= 7 and odd q"),
    ("POmegaPlus", 6, 2, "POmega needs even n >= 8"),
    ("POmegaMinus", 9, 2, "POmega needs even n >= 8"),
])
def test_group_family_spec_rules(family, n, q, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GroupFamilySpec(family, n, PrimePower.of(q))


@pytest.mark.parametrize("family, n, q", [
    ("PSL", 2, 4), ("PSU", 3, 3), ("PSp", 4, 3), ("OmegaOdd", 7, 3),
    ("POmegaPlus", 8, 2), ("POmegaMinus", 8, 3),
])
def test_group_family_spec_accepts_the_first_allowed_case(family, n, q):
    spec = GroupFamilySpec(family, n, PrimePower.of(q))
    assert (spec.family, spec.n, spec.q.q) == (family, n, q)


@pytest.mark.parametrize("v, k_bound", [(8, 168), (1, 168), (7, 0), (7, -5)])
def test_catalog_row_rejects_even_or_small_v_and_nonpositive_bound(v, k_bound):
    with pytest.raises(ValueError, match="^bad catalog row t1-x$"):
        CatalogRow("t1-x", "X", "H", v, k_bound, None, "t1")


# --- immutability, equality, hashing, repr --------------------------------------


@pytest.mark.parametrize("kind, field", [
    ("Factorization", "value"), ("PrimePower", "q"), ("BlockSystem", "degree"),
    ("DesignParams", "lam"), ("GroupFamilySpec", "n"), ("AdmissiblePair", "k"),
    ("CatalogRow", "k_bound"), ("RowReport", "note"),
])
def test_assignment_raises_attribute_error(kind, field):
    value = make(kind)
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        value.extra = 0


@pytest.mark.parametrize("kind", PICKLABLE)
def test_equal_fields_give_equal_instances_and_hashes(kind):
    a, b = make(kind), make(kind)
    assert a is not b and a == b and hash(a) == hash(b)


def test_unequal_fields_give_unequal_instances():
    assert AdmissiblePair(4, 2) != AdmissiblePair(5, 2)
    assert PrimePower(2, 3) != PrimePower(2, 2)
    row = make("CatalogRow")
    assert RowReport(row, (), "PASS") != RowReport(row, (), "PASS", "x")


def test_instances_holding_groups_compare_by_field():
    ambient = cyclic(11)
    spec = DifferenceSetSpec(ambient, (1, 3, 4, 5, 9))
    assert spec == DifferenceSetSpec(ambient, (1, 3, 4, 5, 9))
    assert hash(spec) == hash(DifferenceSetSpec(ambient, (1, 3, 4, 5, 9)))
    assert spec != DifferenceSetSpec(cyclic(11), (1, 3, 4, 5, 9))  # another ambient object
    assert spec.lam() == 2
    design = IncidenceStructure(3, [[0, 1], [1, 2], [0, 2]])
    a = NamedInstance("tri", design, None, (3, 2, 1), None, None)
    assert a == NamedInstance("tri", design, None, (3, 2, 1), None, None)
    with pytest.raises(TypeError):
        hash(a)  # an IncidenceStructure is unhashable


def test_repr_names_every_field():
    assert repr(AdmissiblePair(4, 2)) == "AdmissiblePair(k=4, lam=2)"
    assert repr(PrimePower(2, 3)) == "PrimePower(p=2, a=3, q=8)"
    assert repr(make("RowReport")) == (
        "RowReport(row=CatalogRow(id='t1-fano', x='PSL_3(2)', h0='S_4', v=7, k_bound=168,"
        " required_lambda=2, table='t1'), pairs=(AdmissiblePair(k=4, lam=2),),"
        " status='PASS', note='')"
    )


def test_block_system_properties():
    bs = make("BlockSystem")
    assert (bs.num_classes, bs.class_size) == (2, 3)
    assert bs.classes() == [frozenset({0, 2, 4}), frozenset({1, 3, 5})]


# --- pickle and copy ------------------------------------------------------------


@pytest.mark.parametrize("kind", PICKLABLE)
def test_pickle_and_copy_round_trip(kind):
    value = make(kind)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value) and back == value
    for back in (copy.copy(value), copy.deepcopy(value)):
        assert type(back) is type(value) and back == value
    assert repr(copy.deepcopy(value)) == repr(value)


def test_instances_are_tuples():
    # they index, unpack and order, and equal the plain tuple of their values
    assert AdmissiblePair(4, 2) == (4, 2) and PrimePower(2, 3)[2] == 8
    v, k, lam = DesignParams(7, 3, 1)
    assert (v, k, lam) == (7, 3, 1)
    assert sorted([AdmissiblePair(6, 3), AdmissiblePair(5, 2)]) == [(5, 2), (6, 3)]
