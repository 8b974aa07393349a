import numpy as np

from hgxbench.csbm import CsbmSpec, EdgeSizeLaw, describe, generate

SPEC = CsbmSpec(n=300, m=120, classes=7, features=8, homophily=0.9,
                feature_snr=4.0, sizes=EdgeSizeLaw("lognormal", 1.5, 0.9, cap=40))


def _same(a, b):
    return (
        a.n == b.n and a.edges == b.edges
        and np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        and np.array_equal(a.train_idx, b.train_idx)
        and np.array_equal(a.val_idx, b.val_idx)
    )


def test_same_seed_gives_identical_arrays():
    assert _same(generate(SPEC, 7), generate(SPEC, 7))


def test_different_seed_gives_different_arrays():
    a, b = generate(SPEC, 7), generate(SPEC, 8)
    assert a.edges != b.edges
    assert not np.array_equal(a.x, b.x)
    assert not np.array_equal(a.y, b.y)


def test_edges_have_two_distinct_members_within_cap():
    for law in (EdgeSizeLaw("poisson", 1.6), SPEC.sizes):
        spec = CsbmSpec(**{**SPEC.__dict__, "sizes": law})
        for e in generate(spec, 3).edges:
            assert len(set(e)) == len(e) >= 2
            assert len(e) <= law.cap
            assert all(0 <= v < spec.n for v in e)


def test_split_covers_every_node_once():
    d = generate(SPEC, 1)
    both = np.concatenate([d.train_idx, d.val_idx])
    assert np.array_equal(np.sort(both), np.arange(SPEC.n))


def test_describe_counts_incidences():
    d = generate(SPEC, 1)
    info = describe(d)
    assert info["incidences"] == sum(len(e) for e in d.edges)
    assert info["edge_size"]["q0"] >= 2
    assert info["degree"]["q100"] >= info["degree"]["q50"]
