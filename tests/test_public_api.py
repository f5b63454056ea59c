"""The documented top-level API surface must stay importable and usable."""

import importlib
import pkgutil

import pytest

import repro


def _exports():
    """``(package, name)`` for every name a ``repro`` package exports: its
    ``__all__`` and its lazy ``_EXPORTS`` map.  Test ids are the bare name
    for ``repro`` itself and ``package.name`` below it."""
    cases = [pytest.param("repro", name, id=name) for name in sorted(repro._EXPORTS)]
    for info in sorted(pkgutil.walk_packages(repro.__path__, "repro."), key=lambda m: m.name):
        if info.ispkg:
            package = importlib.import_module(info.name)
            names = set(package.__all__) | set(getattr(package, "_EXPORTS", ()))
            cases += [
                pytest.param(info.name, name, id=f"{info.name}.{name}")
                for name in sorted(names)
            ]
    return cases


class TestTopLevelExports:
    def test_version(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize("package, name", _exports())
    def test_every_export_resolves(self, package, name):
        value = getattr(importlib.import_module(package), name)
        assert value is not None

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_a_thing

    def test_dir_lists_exports(self):
        listing = dir(repro)
        assert "RADSEngine" in listing
        assert "Graph" in listing

    def test_docstring_workflow(self):
        """The workflow shown in the package docstring actually runs."""
        from repro import Cluster, RADSEngine, paper_query
        from repro.graph import erdos_renyi

        graph = erdos_renyi(50, 0.1, seed=1)
        cluster = Cluster.create(graph, num_machines=3)
        result = RADSEngine().run(cluster, paper_query("q2"))
        assert not result.failed
        assert result.embedding_count >= 0

    def test_lazy_export_cached(self):
        first = repro.Pattern
        assert repro.__dict__.get("Pattern") is first
