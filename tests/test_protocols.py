"""The committed protocol files: each loads as a ``bench`` experiment, and
the acceptance protocol, on which the printed acceptance criteria and their
bounds rest, is pinned to its value."""

from pathlib import Path

import pytest

from eaftlab import cli
from eaftlab import forgebench as fb

PROTOCOLS = Path(__file__).resolve().parent.parent / "protocols"


@pytest.mark.parametrize("path", sorted(PROTOCOLS.glob("*.json")), ids=lambda p: p.name)
def test_protocol_loads(path):
    assert isinstance(cli.load_experiment(path), fb.Experiment)


def test_acceptance_protocol_is_pinned():
    expected = fb.Experiment(domain=fb.DomainSpec(peak_mass=0.99, seed=0))
    assert cli.load_experiment(PROTOCOLS / "acceptance.json") == expected
    assert expected.objectives == tuple(fb.DEFAULT_OBJECTIVE_GRID)
    assert expected.seeds == (0, 1, 2, 3, 4)
