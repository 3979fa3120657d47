import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def fresh_python():
    """Runs Python source in a new interpreter that imports the orthoselect
    under test, and returns its stdout."""
    import orthoselect

    src = str(Path(orthoselect.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(code: str) -> str:
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True).stdout

    return run
