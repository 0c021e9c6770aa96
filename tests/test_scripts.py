import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_identity_checks_localizes_the_disputed_cells():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "identity_checks.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "(3,0) g=0 s=5: trapezoid row" in done.stdout
    assert "the engine computes rect:2,4 s=5 as" in done.stdout
