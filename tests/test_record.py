import copy
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction

import pytest

import linnij
from linnij.catalog import CatalogEntry, load_catalog, verify_entry
from linnij.exactfield import Scalar
from linnij.nijenhuis import (
    is_left_symmetric,
    operator_to_lsa,
    torsion,
)
from linnij.polyring import Poly, exact_divide
from linnij.record import Record
from linnij.reconstruct import (
    Equation,
    check_solution,
    derive_alphas,
    generate_linearity_system,
    normalize_sigma2,
    param_sigmas_2d,
    reconstruct_operator,
    solve_two_dim,
)
from linnij.textio import default_names, parse_poly

NAMES2 = default_names(2)

#: The classes allowed their own ``__setattr__``, ``__eq__`` and ``__hash__``.
VALUE_TYPES = {Record, Scalar, Poly}


def one_of_each_record():
    """One instance of every record type, each from its public producer."""
    x1, x2 = (Poly.variable(2, i) for i in range(2))
    ps = param_sigmas_2d(1)
    system = generate_linearity_system(ps)
    _, roots = solve_two_dim(system)
    assignment = {"a": roots[0]}
    assignment.update(derive_alphas(ps, assignment))
    assignment["alpha11"] = assignment["alpha11"] + 1
    checked = check_solution(system, assignment)
    entry = load_catalog()[0]
    return {
        "ReconstructionResult": reconstruct_operator([x1, x1 * x2]),
        "ParamSigmaSet": ps,
        "Equation": system.equations[0],
        "LinearitySystem": system,
        "Residual": checked.residuals[0],
        "CheckResult": checked,
        "Sigma2NormalForm": normalize_sigma2(parse_poly("x1^2 + x1*x2", NAMES2)),
        "TorsionTensor": torsion(entry.operator),
        "LsaCheck": is_left_symmetric(operator_to_lsa(entry.operator)),
        "CatalogEntry": entry,
        "EntryReport": verify_entry(entry),
        "DivisibilityFailure": exact_divide(x1, x2),
        "PolyMatrix": entry.operator,
        "StructureConstants": entry.relations,
    }


def test_every_record_is_immutable():
    records = one_of_each_record()
    assert len(records) == 14
    for name, record in records.items():
        assert type(record).__name__ == name
        assert isinstance(record, Record)
        field = type(record).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = None


def test_copy_deepcopy_and_pickle_rebuild_equal_immutable_values():
    catalog = load_catalog()
    targets = {e.id: e for e in catalog}
    wide = parse_poly("x1^300*x2 - 2/3*x2", NAMES2)
    values = [Scalar(Fraction(3, 4)), Scalar(Fraction(-2, 7), Fraction(5, 3), 3),
              parse_poly("x1^2 - 1/2*x2", NAMES2), wide,
              parse_poly("sqrt(3)*x1*x2 + 1", NAMES2)]
    values += catalog
    values += [verify_entry(entry, targets) for entry in catalog]
    values += one_of_each_record().values()
    assert wide.width > Poly.variable(2, 0).width
    for value in values:
        copies = [copy.copy(value), copy.deepcopy(value)]
        copies += [pickle.loads(pickle.dumps(value, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies:
            assert type(twin) is type(value)
            assert twin == value
            field = type(value).__slots__[0]
            with pytest.raises(AttributeError):
                setattr(twin, field, None)
            with pytest.raises(AttributeError):
                twin.extra = None


def test_wrong_value_count_is_a_type_error():
    with pytest.raises(TypeError):
        Equation("P1", 2, 1, (1, 0))
    with pytest.raises(TypeError):
        Equation("P1", 2, 1, (1, 0), Poly.zero(2), None)


def test_records_compare_and_hash_by_value():
    x1 = Poly.variable(2, 0)
    first = Equation("P1", 2, 1, (1, 0), x1)
    second = Equation("P1", 2, 1, (1, 0), Poly.variable(2, 0))
    assert first == second and hash(first) == hash(second)
    assert first != Equation("P1", 2, 1, (0, 1), x1)
    assert first != ("P1", 2, 1, (1, 0), x1)
    fresh, again = load_catalog()[0], load_catalog()[0]
    assert fresh is not again
    assert fresh == again and hash(fresh) == hash(again)
    assert len({fresh, again}) == 1


def test_only_record_and_value_types_define_the_immutability_dunders():
    offenders = []
    for info in pkgutil.iter_modules(linnij.__path__):
        module = importlib.import_module("linnij." + info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__ or cls in VALUE_TYPES:
                continue
            for dunder in ("__setattr__", "__eq__", "__hash__"):
                if dunder in vars(cls):
                    offenders.append("%s.%s" % (cls.__qualname__, dunder))
    assert offenders == []
