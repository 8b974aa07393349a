"""Input-boundary errors that no other test reaches: each bad input
raises its own typed error, with a message that names the mismatch."""

import numpy as np
import pytest

from hgx import autodiff as ad
from hgx import rules
from hgx.allset import AllSetLayer, AllSetNetwork, DeepSetsPool, SumPool
from hgx.hypergraph import HypergraphError, from_edge_list
from hgx.nn import MlpSpec

PATH = from_edge_list(3, [[0, 1], [1, 2]])  # 3 nodes, 2 edges


def network_forward(x):
    net = AllSetNetwork(2, 2, [AllSetLayer(SumPool(), SumPool())])
    return net.forward(net.init_params(np.random.default_rng(0)), PATH, x)


def hcha_with_edge_rows(rows):
    params = rules.init_hcha_params(np.random.default_rng(0), 2, 2, f_edge=2)
    return rules.hcha_layer(PATH, np.ones((3, 2)), params, edge_feats=np.ones((rows, 2)))


def hypersage(x, p=1):
    params = rules.init_hypersage_params(np.random.default_rng(0), 2, 2)
    return rules.hypersage_layer(PATH, x, params, p=p)


def hnhn(hg=PATH, **exponents):
    params = rules.init_hnhn_params(np.random.default_rng(0), 2, 2, 2)
    return rules.hnhn_layer(hg, np.ones((hg.n, 2)), params, **exponents)


BAD_INPUTS = {
    "3-d array": (lambda: ad.Tensor(np.ones((2, 2, 2))),
                  ad.ShapeMismatchError, "at most 2 dimensions, got 3"),
    "column concat of nothing": (lambda: ad.concat_cols([]),
                                 ad.ShapeMismatchError, "at least one part"),
    "column slice out of range": (lambda: ad.slice_cols(ad.Tensor(np.ones((2, 3))), 1, 4),
                                  ad.ShapeMismatchError, r"slice \[1:4\] out of range"),
    "deep sets widths": (lambda: DeepSetsPool(MlpSpec((2, 3)), MlpSpec((4, 2))),
                         ValueError, "inner output width 3 != outer input width 4"),
    "deep sets input width": (
        lambda: DeepSetsPool(MlpSpec((2, 3)), MlpSpec((3, 2))).init_params(
            np.random.default_rng(0), 5, "f"),
        ValueError, "pool expects 2 columns, got 5"),
    "layer variant": (lambda: AllSetLayer(SumPool(), SumPool(), variant="pairs"),
                      ValueError, "unknown variant 'pairs'"),
    "edge state rows": (
        lambda: AllSetLayer(SumPool(), SumPool()).e2v_forward({}, PATH, np.ones((3, 1))),
        ad.ShapeMismatchError, "states have 3 rows, the shared variant reads 2"),
    "network feature width": (lambda: network_forward(np.ones((3, 3))),
                              ad.ShapeMismatchError, "expects 2 feature columns, got 3"),
    "network input projection width": (
        lambda: AllSetNetwork(4, 3, [AllSetLayer(SumPool(), SumPool())],
                              input_proj=MlpSpec((5, 8))),
        ad.ShapeMismatchError, "input projection reads 5 columns, the network 4"),
    "zprop bool order": (lambda: rules.z_prop(PATH, np.ones((3, 2)), True),
                         ValueError, "order must be an integer >= 2, got True"),
    "zprop float order": (lambda: rules.z_prop(PATH, np.ones((3, 2)), 2.0),
                          ValueError, r"order must be an integer >= 2, got 2\.0"),
    "hprop order one": (lambda: rules.h_prop(PATH, np.ones((3, 2)), 1),
                        ValueError, "order must be an integer >= 2, got 1"),
    "hprop bool order": (lambda: rules.h_prop(PATH, np.ones((3, 2)), True),
                         ValueError, "order must be an integer >= 2, got True"),
    "hcha edge feature rows": (lambda: hcha_with_edge_rows(3),
                               ad.ShapeMismatchError, "edge features have 3 rows for 2 edges"),
    "hypersage order": (lambda: hypersage(np.ones((3, 2)), p=0),
                        ValueError, "order must be an integer >= 1, got 0"),
    "hypersage bool order": (lambda: hypersage(np.ones((3, 2)), p=True),
                             ValueError, "order must be an integer >= 1, got True"),
    "hypersage float order": (lambda: hypersage(np.ones((3, 2)), p=2.0),
                              ValueError, r"order must be an integer >= 1, got 2\.0"),
    "hypersage nan order": (lambda: hypersage(np.ones((3, 2)), p=float("nan")),
                            ValueError, "order must be an integer >= 1, got nan"),
    "hnhn nan alpha": (lambda: hnhn(alpha=float("nan")),
                       ValueError, "exponents must be finite, got alpha=nan, beta=0.0"),
    "hnhn inf alpha": (lambda: hnhn(alpha=float("inf")),
                       ValueError, "exponents must be finite, got alpha=inf, beta=0.0"),
    "hnhn nan beta": (lambda: hnhn(beta=float("nan")),
                      ValueError, "exponents must be finite, got alpha=0.0, beta=nan"),
    # every member of both edges has degree 2, and 2 ** -2000 underflows to 0
    "hnhn vanishing edge normalizer": (
        lambda: hnhn(from_edge_list(2, [[0, 1], [0, 1]]), beta=-2000.0),
        rules.ZeroNormalizerError, "edge-side normalizer vanished"),
    "hypersage zero row": (lambda: hypersage(np.zeros((3, 2))),
                           rules.ZeroNormRowError, "zero norm"),
    "edge weight count": (lambda: from_edge_list(3, [[0, 1], [1, 2]], weights=[1.0]),
                          HypergraphError, "1 weights for 2 edges"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_raises_its_typed_error(case):
    call, error, match = BAD_INPUTS[case]
    with pytest.raises(error, match=match) as raised:
        call()
    assert type(raised.value) is error
