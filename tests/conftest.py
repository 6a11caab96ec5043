import os
import sys
from pathlib import Path

import pytest

import netloc.data
import netloc.features

sys.path.insert(0, str(Path(__file__).parent))

# Tests that start `python -m netloc.cli` get the netloc this process imported,
# also when pytest itself found it through pyproject.toml's pythonpath.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(netloc.data.__file__).parents[1]), os.environ.get("PYTHONPATH")])
)


@pytest.fixture
def feature_builds(monkeypatch):
    """The graph list of each call to the group feature builder, in call order.

    Both of its bindings are spied on, so a lone ``build_feature_matrix(g)``
    shows up as a call on ``[g]``.
    """
    calls = []
    real = netloc.features.build_feature_matrices

    def spy(graphs):
        calls.append(list(graphs))
        return real(graphs)

    monkeypatch.setattr(netloc.features, "build_feature_matrices", spy)
    monkeypatch.setattr(netloc.data, "build_feature_matrices", spy)
    return calls
