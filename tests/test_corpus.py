"""Builtin corpus integrity and the descriptor file format."""

from __future__ import annotations

import pytest

from nilcrit.corpus import (
    BUILTINS,
    builtin_names,
    corpus_hash,
    filter_names,
    load_group,
    parse_descriptor,
    verify_descriptor,
)
from nilcrit.errors import InvalidPermutation, OrderMismatch, ParseError, TagMismatch
from nilcrit.structure import is_nilpotent, is_soluble

from conftest import stretch_group
from oracles import elements_of

EXPECTED_ORDERS = {
    "trivial": 1, "V4": 4, "Q8": 8, "S3": 6, "S4": 24, "S5": 120,
    "A4": 12, "A5": 60, "A6": 360, "F20": 20, "SL2_3": 24, "C3:C4": 12,
    "C7:C3": 21, "S3xS3": 36, "C3wrC2": 18, "S4xC3": 72, "E27": 27,
    "SL2_5": 120, "PSL2_7": 168,
}


class TestBuiltins:
    def test_catalog_contents(self):
        names = builtin_names()
        for expected in EXPECTED_ORDERS:
            assert expected in names
        for n in range(2, 13):
            assert f"C{n}" in names
        for n in range(3, 13):
            assert f"D{2 * n}" in names

    def test_orders_by_independent_expectation(self):
        for name, order in EXPECTED_ORDERS.items():
            assert load_group(name).order() == order, name

    def test_cyclic_and_dihedral_orders(self):
        for n in range(2, 13):
            assert load_group(f"C{n}").order() == n
        for n in range(3, 13):
            assert load_group(f"D{2 * n}").order() == 2 * n

    def test_every_builtin_verifies_at_load(self):
        for name in builtin_names():
            load_group(name)

    def test_tags_are_consistent(self):
        for name in builtin_names():
            G = BUILTINS[name].build()
            tags = BUILTINS[name].tags
            assert ("soluble" in tags) == is_soluble(G), name
            assert ("insoluble" in tags) == (not is_soluble(G)), name
            if "nilpotent" in tags:
                assert is_nilpotent(G), name

    def test_structure_highlights(self):
        assert not is_soluble(load_group("SL2_5"))
        assert not is_soluble(load_group("PSL2_7"))
        assert is_nilpotent(load_group("E27"))
        assert is_nilpotent(load_group("Q8"))
        assert is_soluble(load_group("SL2_3"))
        assert is_soluble(load_group("S4xC3"))

    def test_filters(self):
        assert set(filter_names("insoluble")) == {"A5", "A6", "S5", "SL2_5", "PSL2_7"}
        assert "S4" in filter_names("soluble")
        assert "S4" not in filter_names("nilpotent")
        assert len(filter_names("all")) == len(builtin_names())
        with pytest.raises(ValueError):
            filter_names("weird")

    def test_corpus_hash_is_stable_and_selective(self):
        h1 = corpus_hash(["S4", "S3"])
        h2 = corpus_hash(["S3", "S4"])
        h3 = corpus_hash(["S4"])
        assert h1 == h2
        assert h1 != h3


class TestDescriptorParsing:
    def test_image_array_and_cycle_sugar(self):
        text = "id: demo\ndegree: 3\norder: 6\ngen: [2, 1, 3]\ngen: (1 2 3)\n"
        desc = parse_descriptor(text)
        G = desc.build()
        assert G.order() == 6
        verify_descriptor(desc, G)

    def test_single_transposition_from_array(self):
        desc = parse_descriptor("degree: 3\ngen: [2, 1, 3]\n")
        G = desc.build()
        assert G.order() == 2
        assert G.generators[0].cycle_string() == "(1 2)"

    def test_duplicate_image_rejected(self):
        with pytest.raises(InvalidPermutation):
            parse_descriptor("degree: 3\ngen: [1, 1, 3]\n")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_descriptor("degree: 3\nnot a field line\n")
        assert err.value.line == 2

    def test_degree_256_parses_and_builds(self):
        desc = parse_descriptor("degree: 256\norder: 4\ngen: (1 256)(2 255)\n"
                                "gen: [" + ", ".join(map(str, [2, 1] + list(range(3, 255)) + [256, 255])) + "]\n")
        G = desc.build()
        verify_descriptor(desc, G)
        assert G.degree == 256 and G.order() == 4

    def test_degree_above_256_fails_before_any_generator_is_built(self, monkeypatch):
        class NoPermutations:
            def __getattr__(self, name):
                raise AssertionError(f"Permutation.{name} reached")

        monkeypatch.setattr("nilcrit.corpus.Permutation", NoPermutations())
        with pytest.raises(ParseError, match="degree 257 exceeds the limit of 256 points"):
            parse_descriptor("degree: 257\ngen: (1 2)\n")

    @pytest.mark.parametrize("text", ["degree: 2\ngen: [true, 2]\n",
                                      "degree: 3\ngen: [2, true, 3]\n"])
    def test_json_booleans_are_not_points(self, text):
        # true == 1 in Python: [true, 2] read as the identity, [2, true, 3] as (1 2)
        with pytest.raises(ParseError, match="must list"):
            parse_descriptor(text)

    def test_missing_degree(self):
        with pytest.raises(ParseError):
            parse_descriptor("gen: [2, 1, 3]\n")

    def test_wrong_length_array(self):
        with pytest.raises(ParseError):
            parse_descriptor("degree: 4\ngen: [2, 1, 3]\n")

    def test_order_mismatch_detected(self):
        desc = parse_descriptor("degree: 3\norder: 5\ngen: [2, 1, 3]\n")
        with pytest.raises(OrderMismatch):
            verify_descriptor(desc, desc.build())

    def test_tag_mismatch_detected(self):
        desc = parse_descriptor("degree: 3\ntags: insoluble\ngen: [2, 1, 3]\n")
        with pytest.raises(TagMismatch):
            verify_descriptor(desc, desc.build())

    def test_unknown_tag_rejected(self):
        with pytest.raises(ParseError):
            parse_descriptor("degree: 3\ntags: sporadic\ngen: [2, 1, 3]\n")


class TestRoundTrip:
    def test_canonical_text_reparses_to_same_group(self, tmp_path):
        for name in ("S4", "Q8", "F20", "C7:C3"):
            desc = BUILTINS[name]
            text = desc.canonical_text()
            reparsed = parse_descriptor(text)
            G1, G2 = desc.build(), reparsed.build()
            assert G1.order() == G2.order()
            assert list(elements_of(G1)) == list(elements_of(G2))

    def test_load_group_from_file(self, tmp_path):
        path = tmp_path / "demo.grp"
        path.write_text(BUILTINS["S4"].canonical_text())
        G = load_group(str(path))
        assert G.order() == 24

    def test_unknown_name_is_a_parse_error(self):
        with pytest.raises(ParseError):
            load_group("NoSuchGroup")


class TestStretchCorpus:
    @pytest.mark.parametrize("name, order", [("S4cubed", 24 ** 3), ("S4wrS3", 24 ** 3 * 6)])
    def test_loads_with_its_stated_order(self, name, order):
        # loading re-verifies the order: and tags: lines against the group
        G = stretch_group(name)
        assert (G.name, G.degree, G.order()) == (name, 12, order)
        assert is_soluble(G)
