import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def chain_builds(monkeypatch):
    """(n, boxes) of every chain table `_count_table` builds, from an empty
    table memo."""
    from qcrystal import multiplicity

    builds = []
    real = multiplicity._count_table
    monkeypatch.setattr(multiplicity, "_count_table", lambda n, boxes: builds.append((n, boxes)) or real(n, boxes))
    monkeypatch.setattr(multiplicity, "_tables", {})
    return builds
