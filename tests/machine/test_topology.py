"""Unit tests for cluster topology index maps."""

import dataclasses
import pickle

import pytest

from repro.errors import ConfigError
from repro.machine.topology import MachineConfig


@pytest.fixture
def cfg():
    return MachineConfig(nodes=3, processes_per_node=2, workers_per_process=4)


class TestSizes:
    def test_totals(self, cfg):
        assert cfg.total_processes == 6
        assert cfg.total_workers == 24
        assert cfg.workers_per_node == 8

    def test_describe_mentions_mode(self, cfg):
        assert "SMP" in cfg.describe()
        nonsmp = MachineConfig(2, 4, 1, smp=False)
        assert "non-SMP" in nonsmp.describe()


class TestMaps:
    def test_process_of_worker_blocked(self, cfg):
        assert cfg.process_of_worker(0) == 0
        assert cfg.process_of_worker(3) == 0
        assert cfg.process_of_worker(4) == 1
        assert cfg.process_of_worker(23) == 5

    def test_node_of_worker(self, cfg):
        assert cfg.node_of_worker(0) == 0
        assert cfg.node_of_worker(7) == 0
        assert cfg.node_of_worker(8) == 1
        assert cfg.node_of_worker(23) == 2

    def test_node_of_process(self, cfg):
        assert cfg.node_of_process(0) == 0
        assert cfg.node_of_process(1) == 0
        assert cfg.node_of_process(2) == 1

    def test_workers_of_process(self, cfg):
        assert list(cfg.workers_of_process(1)) == [4, 5, 6, 7]

    def test_processes_of_node(self, cfg):
        assert list(cfg.processes_of_node(2)) == [4, 5]

    def test_workers_of_node(self, cfg):
        assert list(cfg.workers_of_node(1)) == list(range(8, 16))

    def test_local_rank(self, cfg):
        assert cfg.local_rank_of_worker(0) == 0
        assert cfg.local_rank_of_worker(5) == 1
        assert cfg.local_rank_of_worker(7) == 3

    def test_worker_id_inverse_of_maps(self, cfg):
        for w in range(cfg.total_workers):
            p = cfg.process_of_worker(w)
            r = cfg.local_rank_of_worker(w)
            assert cfg.worker_id(p, r) == w


class TestPredicates:
    def test_same_process(self, cfg):
        assert cfg.same_process(0, 3)
        assert not cfg.same_process(3, 4)

    def test_same_node(self, cfg):
        assert cfg.same_node(0, 7)
        assert not cfg.same_node(7, 8)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(nodes=0, processes_per_node=1, workers_per_process=1),
            dict(nodes=1, processes_per_node=0, workers_per_process=1),
            dict(nodes=1, processes_per_node=1, workers_per_process=0),
        ],
    )
    def test_bad_sizes_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            MachineConfig(**kwargs)

    def test_nonsmp_requires_single_worker(self):
        with pytest.raises(ConfigError):
            MachineConfig(1, 2, 2, smp=False)
        MachineConfig(1, 2, 1, smp=False)  # fine

    def test_out_of_range_worker(self, cfg):
        with pytest.raises(ConfigError):
            cfg.process_of_worker(24)
        with pytest.raises(ConfigError):
            cfg.process_of_worker(-1)

    def test_out_of_range_process(self, cfg):
        with pytest.raises(ConfigError):
            cfg.workers_of_process(6)

    def test_out_of_range_node(self, cfg):
        with pytest.raises(ConfigError):
            cfg.processes_of_node(3)

    def test_bad_local_rank(self, cfg):
        with pytest.raises(ConfigError):
            cfg.worker_id(0, 4)

    def test_frozen(self, cfg):
        with pytest.raises(Exception):
            cfg.nodes = 5


#: Index maps by the kind of id they take: (method name, fixed args).
_WORKER_MAPS = (
    "process_of_worker", "node_of_worker", "local_rank_of_worker",
)
_PROCESS_MAPS = ("node_of_process", "workers_of_process")
_NODE_MAPS = ("processes_of_node", "workers_of_node")


class TestRangeChecks:
    """Every map validates its id: -1 and N are rejected for workers,
    processes and nodes alike."""

    @pytest.mark.parametrize("name", _WORKER_MAPS)
    def test_worker_maps(self, cfg, name):
        fn = getattr(cfg, name)
        fn(0)
        fn(cfg.total_workers - 1)
        for bad in (-1, cfg.total_workers):
            with pytest.raises(ConfigError, match=f"worker {bad} out of range"):
                fn(bad)

    @pytest.mark.parametrize("name", _PROCESS_MAPS)
    def test_process_maps(self, cfg, name):
        fn = getattr(cfg, name)
        fn(0)
        fn(cfg.total_processes - 1)
        for bad in (-1, cfg.total_processes):
            with pytest.raises(ConfigError, match=f"process {bad} out of range"):
                fn(bad)

    @pytest.mark.parametrize("name", _NODE_MAPS)
    def test_node_maps(self, cfg, name):
        fn = getattr(cfg, name)
        fn(0)
        fn(cfg.nodes - 1)
        for bad in (-1, cfg.nodes):
            with pytest.raises(ConfigError, match=f"node {bad} out of range"):
                fn(bad)

    def test_worker_id_process(self, cfg):
        for bad in (-1, cfg.total_processes):
            with pytest.raises(ConfigError, match=f"process {bad} out of range"):
                cfg.worker_id(bad, 0)
        with pytest.raises(ConfigError, match="local_rank -1"):
            cfg.worker_id(0, -1)

    @pytest.mark.parametrize("name", ("same_process", "same_node"))
    def test_predicates_check_both_ids(self, cfg, name):
        fn = getattr(cfg, name)
        n = cfg.total_workers
        for bad in (-1, n):
            with pytest.raises(ConfigError, match=f"worker {bad} out of range"):
                fn(bad, 0)
            with pytest.raises(ConfigError, match=f"worker {bad} out of range"):
                fn(0, bad)
        # The first bad id is the one reported.
        with pytest.raises(ConfigError, match="worker -1 out of range"):
            fn(-1, n)

    def test_maps_agree_with_composition(self):
        """The one-frame maps equal the composed definitions."""
        m = MachineConfig(nodes=3, processes_per_node=3, workers_per_process=5)
        for w in range(m.total_workers):
            p = w // m.workers_per_process
            assert m.process_of_worker(w) == p
            assert m.node_of_worker(w) == m.node_of_process(p)
            for v in range(m.total_workers):
                assert m.same_process(w, v) == (
                    m.process_of_worker(w) == m.process_of_worker(v)
                )
                assert m.same_node(w, v) == (
                    m.node_of_worker(w) == m.node_of_worker(v)
                )


class TestCachedSizes:
    """The sizes are cached per instance without changing the value
    semantics of the frozen dataclass."""

    def test_value_semantics_unchanged(self):
        fresh = MachineConfig(3, 2, 4)
        read = MachineConfig(3, 2, 4)
        before = (dataclasses.asdict(read), hash(read), repr(read))
        assert (read.total_processes, read.total_workers,
                read.workers_per_node) == (6, 24, 8)
        assert (dataclasses.asdict(read), hash(read), repr(read)) == before
        assert read == fresh and hash(read) == hash(fresh)
        assert [f.name for f in dataclasses.fields(read)] == [
            "nodes", "processes_per_node", "workers_per_process", "smp",
            "nics_per_node",
        ]

    def test_pickle_round_trip(self):
        read = MachineConfig(3, 2, 4, nics_per_node=2)
        assert read.total_workers == 24
        back = pickle.loads(pickle.dumps(read))
        assert back == read and hash(back) == hash(read)
        assert dataclasses.asdict(back) == dataclasses.asdict(read)
        assert back.total_workers == 24 and back.workers_per_node == 8

    def test_replace_recomputes(self):
        read = MachineConfig(3, 2, 4)
        assert read.total_workers == 24
        bigger = dataclasses.replace(read, nodes=5)
        assert bigger.total_processes == 10
        assert bigger.total_workers == 40
        assert read.total_workers == 24

    def test_still_frozen_after_caching(self, cfg):
        assert cfg.total_workers == 24
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.nodes = 5
