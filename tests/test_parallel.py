"""Indexed-sweep helper tests: index order, errors, explicit worker caps."""

import pytest

from chronomesh.engine import ScenarioConfig, estimate_epsilon
from chronomesh.errors import ConfigurationError
from chronomesh.parallel import run_indexed


@pytest.mark.parametrize("count,threads", [(7, 3), (1, 2), (0, 3), (5, 1), (4, None)])
def test_results_come_back_in_index_order(count, threads):
    assert run_indexed(lambda i: i * i, count, threads=threads) == [
        i * i for i in range(count)]


def test_item_exception_propagates():
    def fn(i):
        if i == 4:
            raise KeyError(i)
        return i

    with pytest.raises(KeyError):
        run_indexed(fn, 9, threads=3)


@pytest.mark.parametrize("threads", [0, -2])
def test_explicit_threads_below_one_is_rejected(threads):
    with pytest.raises(ConfigurationError, match="threads"):
        run_indexed(lambda i: i, 5, threads=threads)


def test_estimate_epsilon_rejects_zero_threads():
    cfg = ScenarioConfig(n_nodes=1, regime="delay", seed=1)
    with pytest.raises(ConfigurationError, match="threads"):
        estimate_epsilon(cfg, n_seeds=2, n_nodes=200, max_iter=1, threads=0)
