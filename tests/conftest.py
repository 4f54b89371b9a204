import pytest

from lstmens import init_network
from lstmens.rng import Rng


@pytest.fixture
def rng():
    return Rng(12345)


def tiny_net(seed=0, d=3, h=4, k=3, layers=2):
    return init_network(d, h, k, num_layers=layers, rng=Rng(seed))

