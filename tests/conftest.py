import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import topicmine.miner  # noqa: E402
from helpers import EXAMPLE_TEXT, CheckingTopKStore, example_database  # noqa: E402


@pytest.fixture(autouse=True)
def checking_store(monkeypatch):
    """Every ``mine`` in the suite fails on a candidate offered twice."""
    monkeypatch.setattr(topicmine.miner, "TopKStore", CheckingTopKStore)


@pytest.fixture
def example_text():
    return EXAMPLE_TEXT


@pytest.fixture
def example_db():
    return example_database()


# Dense ids in the running example (labels 1..5 map to A..E).
A, B, C, D, E = range(5)


@pytest.fixture
def ids():
    return {"A": A, "B": B, "C": C, "D": D, "E": E}
