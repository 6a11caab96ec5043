import sys
from pathlib import Path

import pytest

import netloc.data

sys.path.insert(0, str(Path(__file__).parent))


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
