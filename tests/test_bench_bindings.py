"""The benchmark's tracer wraps package callables by name; each one must exist."""

import importlib.util
from pathlib import Path

from floordiagrams import cli, fixtures, floordiag, invariants, laurent, polygon, surgery

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
MODULES = [cli, fixtures, invariants, polygon, floordiag, laurent, surgery]
# counters that only enumerate_diagrams and the FloorDiagram methods feed
ENUMERATOR_COUNTERS = (
    "floordiag.divergence.",
    "floordiag.enumerate.",
    "floordiag.markings.",
    "floordiag.multiplicity.",
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    return tracer_module.Tracer()


def test_tracer_installs_on_the_package_and_uninstalls():
    main, record = cli.main, invariants.InvariantTable.record
    tracer = load_tracer()
    try:
        tracer.install(MODULES)
        assert cli.main is not main
    finally:
        tracer.uninstall()
    assert cli.main is main
    assert invariants.InvariantTable.record is record


def test_traced_requests_reach_every_wrapper(capsys):
    # the wrappers' counters unpack the wrapped calls' arguments, so a changed
    # signature shows up here as an error or a zero count
    tracer = load_tracer()
    try:
        tracer.install(MODULES)
        codes = (
            cli.main(["compute", "--polygon", "rect:2,2", "--pairs", "0..3"]),
            cli.main(["compute", "--polygon", "rect:3,3", "--pairs", "3"]),  # stuck
        )
        # the engine builds named shapes and cuts from their boundary steps,
        # past HPolygon.__init__ and corner_cut; a direct call reaches both
        polygon.HPolygon([(0, 0), (2, 0), (2, 2), (0, 2)]).corner_cut((0, 0))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == (0, 2)
    counts = tracer.counts()
    # the harness counts output bytes; no cache, fixture or surgery path is
    # taken, and a plain compute sums diagrams by the transfer walk, so the
    # enumerator's divergence, listing, marking and multiplicity wrappers
    # stay idle (the listing test below reaches them)
    idle = {
        name
        for name in counts
        if name.startswith(("cli.std", "fixtures.", "invariants.cache.", "surgery."))
        or name.startswith(ENUMERATOR_COUNTERS)
    }
    assert counts["cli.requests"] == 2
    assert counts["invariants.direct.calls"] > 0
    assert all(counts[name] for name in counts.keys() - idle), counts


def test_traced_verify_and_listing_reach_the_surgery_and_floordiag_wrappers(capsys):
    tracer = load_tracer()
    try:
        tracer.install(MODULES)
        codes = (
            cli.main(["verify", "--suite", "identities"]),
            cli.main(["compute", "--polygon", "rect:2,2", "--list-diagrams"]),
        )
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == (0, 0)
    counts = tracer.counts()
    # u-inversion, main-proof and one call per conjecture instance
    assert counts["surgery.check.calls"] == 2 + len(cli.CONJECTURE_INSTANCES) == 32
    enumerator = [name for name in counts if name.startswith(ENUMERATOR_COUNTERS)]
    assert len(enumerator) == 7
    assert all(counts[name] for name in enumerator), counts


def test_traced_cache_hits_decode_only_the_records_they_read(capsys, tmp_path):
    # the tracer counts lines decoded through invariants.json.loads: a load
    # only indexes the lines the engine wrote, and each request decodes the
    # records it reads, here the three of its pair column
    path = tmp_path / "cache.jsonl"
    requests = (
        ["--cache", str(path), "compute", "--polygon", "rect:2,2", "--pairs", "0..2"],
        ["--cache", str(path), "compute", "--polygon", "sigma2:2,1", "--pairs", "0..2"],
    )
    assert [cli.main(argv) for argv in requests] == [0, 0]
    written = path.read_bytes()
    assert written.count(b"\n") > 6
    tracer = load_tracer()
    try:
        tracer.install(MODULES)
        codes = [cli.main(argv) for argv in requests + requests[:1]]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0, 0]
    assert path.read_bytes() == written
    counts = tracer.counts()
    assert tracer.count["invariants.cache.load"] == 3
    assert counts["invariants.cache.lines_read"] == 3 * 3
    assert counts["invariants.record.computed"] == 0
    assert counts["invariants.cache.lines_appended"] == 0
