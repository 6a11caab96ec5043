import os
import sys
from pathlib import Path

import pytest

import netloc.data

sys.path.insert(0, str(Path(__file__).parent))

# Tests that start `python -m netloc.cli` get the netloc this process imported,
# also when pytest itself found it through pyproject.toml's pythonpath.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(netloc.data.__file__).parents[1]), os.environ.get("PYTHONPATH")])
)


@pytest.fixture
def feature_builds(monkeypatch):
    """Graphs passed to ``netloc.data.build_feature_matrix``, in call order."""
    calls = []
    real = netloc.data.build_feature_matrix

    def spy(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(netloc.data, "build_feature_matrix", spy)
    return calls
