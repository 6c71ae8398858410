"""Property tests on the CPUSPEED threshold rule and daemon."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.hardware import nemo_cluster
from repro.core.strategies import CpuspeedConfig, CpuspeedDaemonStrategy


def rule(config: CpuspeedConfig):
    daemon = CpuspeedDaemonStrategy(config).controller().make()
    return lambda current, usage: daemon.next_index(current, 4, usage)


@given(
    current=st.integers(min_value=0, max_value=4),
    usage=st.floats(min_value=0.0, max_value=100.0),
)
def test_next_index_always_in_range(current, usage):
    next_index = rule(CpuspeedConfig())(current, usage)
    assert 0 <= next_index <= 4


@given(
    current=st.integers(min_value=0, max_value=4),
    low=st.floats(min_value=0.0, max_value=100.0),
    high=st.floats(min_value=0.0, max_value=100.0),
)
def test_response_is_monotone_in_usage(current, low, high):
    """Higher measured utilization never yields a slower next point."""
    if low > high:
        low, high = high, low
    r = rule(CpuspeedConfig())
    assert r(current, low) <= r(current, high)


@given(
    current=st.integers(min_value=0, max_value=4),
    usage=st.floats(min_value=0.0, max_value=100.0),
)
def test_single_poll_moves_at_most_one_step_or_jumps_to_extremes(current, usage):
    cfg = CpuspeedConfig()
    next_index = rule(cfg)(current, usage)
    if usage < cfg.minimum_threshold:
        assert next_index == 0
    elif usage > cfg.maximum_threshold:
        assert next_index == 4
    else:
        assert abs(next_index - current) <= 1


@given(
    usages=st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40
    )
)
def test_any_usage_sequence_keeps_index_valid(usages):
    cfg = CpuspeedConfig()
    r = rule(cfg)
    index = 4
    for usage in usages:
        index = r(index, usage)
        assert 0 <= index <= 4


@given(steady=st.floats(min_value=0.0, max_value=100.0))
@settings(max_examples=30)
def test_constant_usage_converges(steady):
    """Under constant utilization the rule reaches a fixed point or a
    2-cycle (never wanders chaotically)."""
    cfg = CpuspeedConfig()
    r = rule(cfg)
    index = 4
    trajectory = [index]
    for _ in range(20):
        index = r(index, steady)
        trajectory.append(index)
    tail = trajectory[-6:]
    assert len(set(tail)) <= 2


@given(seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=10, deadline=None)
def test_daemon_transitions_bounded_by_polls(seed):
    """The daemon can change speed at most once per polling interval."""
    env = Environment()
    cluster = nemo_cluster(env, 1, with_batteries=False, seed=seed)
    strategy = CpuspeedDaemonStrategy(CpuspeedConfig(interval_s=1.0))
    strategy.setup(cluster, [0])
    horizon = 20.0
    env.run(until=horizon)
    strategy.teardown(cluster)
    assert cluster[0].cpu.stats.transitions <= horizon / 1.0 + 1
