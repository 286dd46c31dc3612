import pytest

from liepseudo.hopf import Hopf
from liepseudo.liecore import preset

_CACHE: dict[str, Hopf] = {}


def hopf_for(name: str) -> Hopf:
    # one Hopf instance per algebra per worker, so its memos (straightening,
    # dual actions, Euler element, gamma) are shared
    if name not in _CACHE:
        _CACHE[name] = Hopf(preset(name))
    return _CACHE[name]


@pytest.fixture(params=["abelian1", "abelian2", "abelian3", "heis3", "sl2", "solv2"])
def any_preset(request) -> Hopf:
    return hopf_for(request.param)


@pytest.fixture(params=["abelian2", "abelian3", "heis3", "sl2", "solv2"])
def any_preset2(request) -> Hopf:
    """Presets of dimension >= 2."""
    return hopf_for(request.param)
