import pathlib

import pytest
from hypothesis import HealthCheck, settings

from tanglepoly import diagram

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture
def planarity_calls(monkeypatch) -> list:
    """The diagrams diagram.planarity_problems runs on, in call order."""
    calls = []
    check = diagram.planarity_problems

    def counting(d):
        calls.append(d)
        return check(d)

    monkeypatch.setattr(diagram, "planarity_problems", counting)
    return calls
