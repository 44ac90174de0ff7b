"""Suites: contents, summaries, determinism, and golden fixtures."""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetlab import cli, homology, suites
from posetlab.poset import FinitePoset, beat_point_core
from posetlab.suites import (
    DEFAULT_REPORT_SUITES,
    SUITE_NAMES,
    canonical_json,
    report_all,
    run_suite,
)

GOLDEN = Path(__file__).parent / "golden"
REPO = Path(__file__).resolve().parent.parent
FIXTURE_SUITES = ("rank3", "duality", "fibers", "morse", "rank4-deep")
# sha256 of the canonical report of each suite too large for a golden file
SUITE_SHA256: dict[str, str] = {}


class TestRankSuites:
    def test_rank2_all_pass(self):
        rep = run_suite("rank2")
        assert rep.ok
        assert rep.summary["fail"] == 0
        assert rep.summary["graphs"] == 4  # 3 graphs + the census record
        checks = {r["check"] for r in rep.records}
        assert {
            "sphericity-x",
            "sphericity-cx",
            "core-retraction-x",
            "core-retraction-cx",
            "alexander-duality",
            "fiber",
            "fiber-connected",
            "subset-lattice-sphere",
            "valence-two-smoothing",
            "census-count",
        } <= checks

    def test_rank3_green_with_honest_homology_only(self):
        rep = run_suite("rank3")
        assert rep.ok
        assert rep.summary["fail"] == 0
        # wedges of circles cannot be certified beyond homology
        assert rep.summary["homology-only"] > 0
        census = [r for r in rep.records if r["check"] == "census-count"]
        assert census and census[0]["data"]["count"] == 15

    def test_forest_generators_only_on_nonseparating(self):
        rep = run_suite("rank3")
        gens = [r for r in rep.records if r["check"] == "forest-generators"]
        assert len(gens) == 8  # 15 graphs - 7 with a separating edge


class TestOtherSuites:
    def test_duality_suite(self):
        rep = run_suite("duality")
        assert rep.ok and rep.summary["checks"] == 18

    def test_fibers_suite(self):
        rep = run_suite("fibers")
        assert rep.ok and rep.summary["checks"] == 36
        assert any("forest" in a for a in rep.assumptions)

    def test_morse_suite(self):
        rep = run_suite("morse")
        assert rep.ok
        absence = [r for r in rep.records if r["check"] == "morse-absence"]
        assert len(absence) == 1
        assert absence[0]["data"]["absence_proof_complete"] is True
        certs = [r for r in rep.records if r["check"] == "morse-certificate"]
        assert len(certs) == 8  # 1 rank-2 + 7 rank-3 separating graphs

    def test_apartments_suite(self):
        rep = run_suite("apartments")
        assert rep.ok and rep.summary["checks"] == 5

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nope")


class TestDeterminism:
    def test_consecutive_runs_byte_identical(self):
        assert run_suite("duality").to_json() == run_suite("duality").to_json()

    def test_wall_time_excluded_from_canonical_json(self):
        rep = run_suite("apartments")
        assert rep.wall_seconds > 0
        assert "wall_seconds" not in json.loads(rep.to_json())

    def test_report_all_is_deterministic(self):
        names = ("apartments", "duality")
        obj1, ok1 = report_all(names)
        obj2, ok2 = report_all(names)
        assert ok1 and ok2
        assert canonical_json(obj1) == canonical_json(obj2)


class TestPerKeyMemo:
    def test_fiber_and_duality_checks_run_once_per_key(self, monkeypatch):
        calls = []

        def counting(real):
            def wrapper(g, *args, **kwargs):
                calls.append(real.__name__)
                return real(g, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(suites, "verify_fiber", counting(suites.verify_fiber))
        monkeypatch.setattr(suites, "verify_duality", counting(suites.verify_duality))
        suites._fiber_checks.cache_clear()
        suites._duality_check.cache_clear()
        try:
            key = suites.enumerate_graphs(2)[0]
            battery = suites._battery_records(key)
            fibers = suites._fiber_records(key)
            duality = suites._duality_records(key)
            assert sorted(calls) == ["verify_duality", "verify_fiber", "verify_fiber"]
            assert [r for r in battery if r["check"].startswith("fiber")] == fibers
            assert [r for r in battery if r["check"] == "alexander-duality"] == duality
        finally:
            suites._fiber_checks.cache_clear()
            suites._duality_check.cache_clear()

    def test_battery_reduces_each_poset_once(self, monkeypatch):
        reduced = []

        def counting(p):
            reduced.append((tuple(p.elements), p.up))
            return beat_point_core(p)

        monkeypatch.setattr(homology, "beat_point_core", counting)
        homology.core_complex.cache_clear()
        suites._fiber_checks.cache_clear()
        suites._duality_check.cache_clear()
        try:
            key = suites.enumerate_graphs(3)[-1]
            suites._battery_records(key)
        finally:
            homology.core_complex.cache_clear()
            suites._fiber_checks.cache_clear()
            suites._duality_check.cache_clear()
        calls, distinct = len(reduced), len(set(reduced))
        assert calls and distinct == calls

    def test_rank4_deep_builds_each_poset_once(self, monkeypatch, tmp_path):
        # per record: the cycle poset, the certificate's image (which is
        # also the core poset) and the beat-point core, except for the 12
        # core complexes the memo already holds and the 111 cores (every
        # cx core) that strip nothing, which are the poset itself
        built = []
        real = FinitePoset.__init__

        def counting(self, elements, up):
            built.append(1)
            real(self, elements, up)

        monkeypatch.setattr(FinitePoset, "__init__", counting)
        homology.core_complex.cache_clear()
        out = tmp_path / "rank4-deep.json"
        try:
            assert cli.main(["report", "--suite", "rank4-deep", "--out", str(out)]) == 0
        finally:
            homology.core_complex.cache_clear()
        assert len(built) == 543

    def test_callers_get_their_own_records(self):
        key = suites.enumerate_graphs(2)[0]
        first = suites._fiber_records(key)
        first[0]["data"]["elements"] = -1
        first[0]["betti"].append(99)
        first.pop()
        again = suites._fiber_records(key)
        assert len(again) == 2
        assert again[0]["data"]["elements"] != -1 and 99 not in again[0]["betti"]
        dual = suites._duality_records(key)
        dual[0]["data"]["forest_homology"].clear()
        assert suites._duality_records(key)[0]["data"]["forest_homology"]


class TestGolden:
    def test_rank2_matches_frozen_fixture(self):
        frozen = (GOLDEN / "rank2_report.json").read_text()
        assert run_suite("rank2").to_json() == frozen

    def test_apartments_matches_frozen_fixture(self):
        frozen = (GOLDEN / "apartments_report.json").read_text()
        assert run_suite("apartments").to_json() == frozen

    @pytest.mark.parametrize("suite", FIXTURE_SUITES)
    def test_matches_frozen_fixture(self, suite):
        frozen = (GOLDEN / f"{suite}_report.json").read_text()
        assert run_suite(suite).to_json() == frozen

    # The aggregate report of the default suites, pinned by its digest: the
    # same bytes `posetlab report` writes.
    REPORT_SHA256 = "4b032f92f65836c5eaafd243a103f37a584111cd750eeab6010877751fc1095c"

    def test_report_all_matches_pinned_digest(self):
        text = canonical_json(report_all()[0])
        assert hashlib.sha256(text.encode()).hexdigest() == self.REPORT_SHA256

    def test_benchmark_pins_match_these_pins(self):
        # the benchmark checks each run's bytes against its own pins, so a
        # report change that moved only the pins here would surface there
        # only as incorrect outputs
        spec = json.loads((REPO / "perfbench" / "spec.json").read_text())["workloads"]
        assert (spec["report"]["sha256"], spec["report"]["checks"]) == (self.REPORT_SHA256, 242)
        deep = (GOLDEN / "rank4-deep_report.json").read_bytes()
        assert spec["rank4-deep"]["sha256"] == hashlib.sha256(deep).hexdigest()
        assert spec["rank4-deep"]["checks"] == json.loads(deep)["summary"]["checks"] == 223


def reference_json(obj):
    """The rendering canonical_json replaced: json's indented encoder."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=True, allow_nan=False) + "\n"


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=6)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(), children, max_size=6),
    max_leaves=40,
)


class TestCanonicalJsonOracle:
    def test_every_golden_renders_byte_for_byte(self):
        paths = sorted(GOLDEN.rglob("*.json"))
        assert len(paths) == 7
        for path in paths:
            text = path.read_text(encoding="utf-8")
            obj = json.loads(text)
            assert canonical_json(obj) == reference_json(obj) == text, path.name

    @settings(max_examples=150, deadline=None, database=None)
    @given(JSON_VALUES)
    def test_json_values_equal_the_reference(self, value):
        assert canonical_json(value) == reference_json(value)

    @pytest.mark.parametrize("obj", [{1: "a"}, {"a": {None: 1}}, [{2.5: 0}], {True: 1}])
    def test_non_string_keys_raise_type_error(self, obj):
        with pytest.raises(TypeError, match="keys must be str"):
            canonical_json(obj)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_numbers_raise_the_reference_error(self, value):
        for obj in (value, [1, value], {"a": {"b": value}}):
            with pytest.raises(ValueError) as expected:
                reference_json(obj)
            with pytest.raises(ValueError, match="JSON") as exc:
                canonical_json(obj)
            assert str(exc.value) == str(expected.value)

    @pytest.mark.parametrize("value", [{1, 2}, b"x", object()])
    def test_other_values_raise_type_error(self, value):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            canonical_json({"a": [value]})


class TestSuiteNames:
    def test_all_names_present(self):
        assert set(DEFAULT_REPORT_SUITES) <= set(SUITE_NAMES)
        assert "rank4-deep" in SUITE_NAMES

    def test_every_suite_has_a_pinned_output(self):
        # a suite lands with its bytes frozen: a golden that TestGolden
        # compares, or a digest in SUITE_SHA256
        goldens = {p.name.removesuffix("_report.json") for p in GOLDEN.glob("*_report.json")}
        assert goldens == {"rank2", "apartments", *FIXTURE_SUITES}
        assert set(SUITE_NAMES) <= goldens | set(SUITE_SHA256)

    def test_pinned_digests_hold(self):
        for suite, digest in SUITE_SHA256.items():
            assert hashlib.sha256(run_suite(suite).to_json().encode()).hexdigest() == digest
