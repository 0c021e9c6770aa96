import ast
import importlib.util
import sys
from pathlib import Path
from unittest import mock

import pytest

from floordiagrams import floordiag
from floordiagrams.invariants import InvariantTable
from floordiagrams.polygon import HPolygon


@pytest.fixture(scope="session")
def table():
    """One shared in-memory invariant table for the whole run."""
    return InvariantTable()


@pytest.fixture(scope="session")
def octagon() -> HPolygon:
    """The benchmark's mixed-slope octagon, read from its workload list."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    (vertices,) = (
        ast.literal_eval(node.value)
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "OCTAGON_VERTICES"
    )
    return HPolygon(vertices)


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's workload module, perfbench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: module}):  # its dataclasses look it up
        spec.loader.exec_module(module)
    return module


@pytest.fixture
def cold_memos():
    """Clears floordiag's process-wide memos before and after the test, so a
    helper that the test patches under them is called, and what it returned
    is not kept; the fixture's value clears them again when called."""
    def clear():
        for memo in vars(floordiag).values():
            if hasattr(memo, "cache_clear"):
                memo.cache_clear()

    clear()
    yield clear
    clear()
