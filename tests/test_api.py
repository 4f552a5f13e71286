"""The stable ``repro.api`` facade and the deprecation shims behind it."""

import warnings

import pytest

import repro
from repro import api
from repro.catalog import figures
from repro.enumeration import synthesise


@pytest.fixture(scope="module")
def x86_synthesis():
    return synthesise("x86", 3)


class TestFacade:
    def test_lazy_api_attribute(self):
        # ``repro.api`` resolves through the package's __getattr__ and
        # is the same module object as a direct import.
        assert repro.api is api

    def test_load_model_matches_registry(self):
        from repro.models import get_model

        assert api.load_model("x86tm").name == get_model("x86tm").name

    def test_load_model_unknown_name(self):
        with pytest.raises(Exception):
            api.load_model("no-such-model")

    def test_check_accepts_model_or_name(self):
        execution = figures.fig2()
        model = api.load_model("x86tm")
        assert api.check(execution, model) == api.check(execution, "x86tm")
        assert api.check(execution, "x86tm") == model.consistent(execution)

    def test_synthesize_matches_sequential_enumerator(self, x86_synthesis):
        result = api.synthesize("x86", 3)
        assert [x.fingerprint() for x in result.forbidden] == [
            x.fingerprint() for x in x86_synthesis.forbidden
        ]
        assert [x.fingerprint() for x in result.allowed] == [
            x.fingerprint() for x in x86_synthesis.allowed
        ]
        assert result.candidates_examined == x86_synthesis.candidates_examined

    def test_run_table_table1(self, x86_synthesis):
        table = api.run_table("table1", arch="x86", bound=3)
        assert table.arch == "x86"
        by_events = {row.events: row for row in table.rows}
        assert by_events[3].forbid_total == len(
            x86_synthesis.forbidden_by_size()[3]
        )
        assert "Table 1" in table.render()

    def test_run_table_figure7(self):
        fig = api.run_table("figure7", arch="x86", bound=3)
        assert fig.discovery_times
        assert "discovery" in fig.render()

    def test_run_table_unknown_name(self):
        with pytest.raises(ValueError, match="unknown table"):
            api.run_table("table9")


class TestDeprecationShims:
    def test_module_level_driver_imports_do_not_warn(self):
        """The drivers live in their modules; the package no longer
        re-exports them."""
        import repro.harness as harness

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.harness.table1 import run_table1  # noqa: F401
        for name in ("run_table1", "run_table2", "run_figure7", "run_ablation"):
            assert not hasattr(harness, name)
