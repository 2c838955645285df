import os
from pathlib import Path

from hypothesis import HealthCheck, settings

import normsums

# print_blob: a failure prints the @reproduce_failure line that replays it
settings.register_profile("default", deadline=None, suppress_health_check=[HealthCheck.too_slow], print_blob=True)
settings.load_profile("default")

# the CLI tests start `python -m normsums.cli` in a child process; point it
# at the package this session imported, whether installed or from src/
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(normsums.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])
)
