"""The result records' contract: immutable NamedTuples, plus the sized DeltaValueSet.

Records unpack, index and compare as tuples.  Assigning to one raises
AttributeError, as a frozen dataclass did.  ``DeltaValueSet`` is a small
class rather than a NamedTuple because its ``len()`` is its value count,
which the benchmark's tracer counts.
"""

from __future__ import annotations

import pytest

from nilcrit.corpus import BUILTINS, GroupDescriptor, builtin_names, load_group
from nilcrit.criterion import (
    coprime_product_criterion,
    lower_central_nilpotency_check,
    probe_insoluble,
)
from nilcrit.lemmas import check_focal_generation
from nilcrit.structure import derived_series, sylow_basis
from nilcrit.words import delta_values, gamma_values, generator_tower


def records():
    s3, s4, a5 = (load_group(name) for name in ("S3", "S4", "A5"))
    check = lower_central_nilpotency_check(s3, 1)
    return {
        "GroupDescriptor": BUILTINS["S4"],
        "SeriesReport": derived_series(s4),
        "SylowBasis": sylow_basis(s4),
        "GeneratorTower": generator_tower(s4),
        "CriterionWitness": check.criterion.witness,
        "CriterionReport": coprime_product_criterion(s4, 1),
        "NilpotencyCheck": check,
        "ProbeReport": probe_insoluble(a5, 1),
        "LemmaReport": check_focal_generation(s4, 1, 2),
    }


@pytest.mark.parametrize("name", sorted(records()))
def test_records_are_immutable_named_tuples(name):
    record = records()[name]
    assert type(record).__name__ == name
    assert isinstance(record, tuple) and len(record) == len(record._fields)
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, None)
    with pytest.raises(AttributeError):
        record.not_a_field = None
    assert getattr(record, first) is record[0]


@pytest.mark.parametrize("k", range(4))
def test_value_set_length_is_its_value_count(k):
    G = load_group("S4")
    for vs in (delta_values(G, k), gamma_values(G, k + 1)):
        assert len(vs) == len(vs.indices)


@pytest.mark.parametrize("name", builtin_names())
def test_positional_descriptor_matches_the_builtin(name):
    desc = BUILTINS[name]
    # the benchmark's inputs are written from descriptors built this way
    moved = GroupDescriptor(desc.id, desc.degree, desc.generators, desc.expected_order,
                            desc.tags)
    assert moved.canonical_text() == desc.canonical_text()
    assert moved == desc
