"""The benchmark's tracer wraps package callables by name; each one must exist."""

import importlib.util
from pathlib import Path

from floordiagrams import cli, fixtures, floordiag, invariants, laurent, polygon, surgery

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_installs_on_the_package_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    main, record = cli.main, invariants.InvariantTable.record
    tracer = tracer_module.Tracer()
    try:
        tracer.install([cli, fixtures, invariants, polygon, floordiag, laurent, surgery])
        assert cli.main is not main
    finally:
        tracer.uninstall()
    assert cli.main is main
    assert invariants.InvariantTable.record is record
