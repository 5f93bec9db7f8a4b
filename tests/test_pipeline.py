import numpy as np
import pytest

import synth
from kmpcluster import (
    ConfigError,
    PipelineConfig,
    ikc,
    run_pipeline,
)

ALL_VARIANTS = [
    PipelineConfig(k=5, stage2="none", stage3=False),
    PipelineConfig(k=5, stage2="none", stage3=True),
    PipelineConfig(k=5, stage2="recursive", stage3=True),
    PipelineConfig(k=5, stage2="recursive", local_search_iters=2000, stage3=True),
    PipelineConfig(k=5, stage2="iterative", stage3=True),
    PipelineConfig(k=5, stage2="iterative", local_search_iters=2000, stage3=True),
]


def test_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(k=5, p=5)
    with pytest.raises(ConfigError):
        PipelineConfig(k=5, p=0)
    with pytest.raises(ConfigError):
        PipelineConfig(k=0)
    with pytest.raises(ConfigError):
        PipelineConfig(k=5, stage2="graclus")


def test_output_always_valid_across_variants():
    rng = np.random.default_rng(1207)
    for seed in rng.integers(1 << 30, size=4):
        net, _, _ = synth.planted_instance(int(seed))
        for cfg in ALL_VARIANTS:
            res = run_pipeline(net, cfg)
            assert res.validity.all_kmp_valid()
            assert len(np.unique(res.final.nodes)) == len(res.final.nodes)


def test_every_node_lands_exactly_once():
    rng = np.random.default_rng(888)
    for _ in range(3):
        net = synth.gnp_net(rng, 150, 0.06)
        for cfg in ALL_VARIANTS:
            res = run_pipeline(net, cfg)
            member = res.final.member_mask()
            buckets = member.astype(np.int64).copy()
            buckets[res.discarded] += 1
            buckets[res.singletons] += 1
            assert (buckets == 1).all()


def test_no_stage2_no_stage3_is_raw_carving():
    rng = np.random.default_rng(17)
    for _ in range(5):
        net = synth.gnp_net(rng, 120, 0.1)
        res = run_pipeline(net, PipelineConfig(k=5, stage2="none", stage3=False))
        assert res.final.same_clusters(ikc(net, 5))
        assert res.discarded.size == 0


def test_eroded_clique_is_resurrected():
    # stage 2 shaves one node off the lone clique; stage 3 re-attaches
    # it on 6 core neighbors and stage 4 relabels it core again
    edges = synth.clique_edges(range(7)) + [(7, 0), (7, 1), (7, 2)]
    edges += synth.clique_edges(range(8, 11))
    net = synth.net_from(edges)
    for stage2 in ("recursive", "iterative"):
        res = run_pipeline(net, PipelineConfig(k=5, stage2=stage2))
        assert len(res.final) == 1
        c = res.final.clusters[0]
        assert c.core.tolist() == list(range(7))
        assert c.noncore.tolist() == [7]
        assert res.discarded.size == 0


def test_stage1_snapshot_and_timings():
    net, _, _ = synth.planted_instance(4242)
    res = run_pipeline(net, PipelineConfig(k=5, stage2="iterative"))
    assert res.stage1.same_clusters(ikc(net, 5))
    for key in ("stage1", "stage2", "stage3", "stage4"):
        assert key in res.timings
    res2 = run_pipeline(net, PipelineConfig(k=5, stage2="none", stage3=False))
    assert "stage2" not in res2.timings and "stage3" not in res2.timings


def test_pendants_attach_as_noncore():
    net, cores, periphery = synth.planted_instance(99)
    res = run_pipeline(net, PipelineConfig(k=5, stage2="none", stage3=True))
    got_cores = sorted((c.core.tolist() for c in res.final.clusters))
    assert got_cores == sorted(c.tolist() for c in cores)
    placed = {}
    for c in res.final.clusters:
        for v in c.noncore.tolist():
            placed[v] = set(c.core.tolist())
    for pendant, clique_idx in periphery.items():
        assert pendant in placed


def test_thread_count_does_not_change_results(monkeypatch):
    net, _, _ = synth.planted_instance(7311)
    cfg = PipelineConfig(k=5, stage2="recursive")
    base = run_pipeline(net, cfg)
    monkeypatch.setenv("KMP_THREADS", "4")
    threaded = run_pipeline(net, cfg)
    assert base.final.same_clusters(threaded.final)
    assert np.array_equal(base.discarded, threaded.discarded)
