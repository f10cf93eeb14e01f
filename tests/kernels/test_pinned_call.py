"""The pinned call of the kernel classes: one memo hit, one plan-cache lookup, the kernel.

A repeat call of :class:`SparseConv3d` or :class:`FullyConnectedTensorProduct`
with operands of the same shapes and dtypes reuses its memo entry: the plan key,
the output placeholder and, where the plan runs its emitted loop nest, the
pointers of the map's or the grouped CG tensor's arrays.  These tests pin down
what that reuse must not change — in-place writes and a reassigned weight are
seen, the plan cache counts every call, the memo stays bounded, threads share a
layer — on both emitters.  Values are integers, exact under every order, and
every oracle is plain NumPy over the layer's own arrays.
"""

import sys
import threading

import numpy as np
import pytest

from repro import clear_plan_cache, get_plan_cache
from repro.runtime import plan_cache
from repro.datasets import build_kernel_map
from repro.kernels import FullyConnectedTensorProduct, SparseConv3d


def pinned(layer, executor) -> bool:
    """Whether every memo entry of ``layer`` holds a pinned call exactly where
    plans run their emitted loop nest."""
    return all((bound.kernel[1] is not None) == (executor == "C") for bound in layer._memo.values())


def integers(rng, shape, dtype=np.float64):
    return rng.integers(-3, 4, size=shape).astype(dtype)


def conv_layer(rng, dtype=np.float64, channels=(5, 19)):
    """A small convolution whose weight is integer-valued and of ``dtype``."""
    voxels = np.unique(rng.integers(0, 5, size=(60, 3)), axis=0)
    conv = SparseConv3d(build_kernel_map(voxels), *channels)
    conv.weight = integers(rng, conv.weight.shape, dtype)
    return conv


def conv_oracle(conv, features):
    """``Out[MAPX[p,q],m] += MAPV[p,q] * In[MAPY[p,q],c] * Weight[MAPZ[p],c,m]``."""
    arrays, weight = conv.map_arrays, np.asarray(conv.weight, dtype=np.float64)
    rows = arrays["MAPV"][..., None] * features.astype(np.float64)[arrays["MAPY"]]
    out = np.zeros((conv.kernel_map.num_voxels, conv.out_channels))
    np.add.at(out, arrays["MAPX"], np.einsum("pqc,pcm->pqm", rows, weight[arrays["MAPZ"]]))
    return out


def product_layer(rng, channels=3):
    """A tensor product whose grouped CG values are overwritten with integers."""
    layer = FullyConnectedTensorProduct(l_max=1, channels=channels)
    values = layer._grouped["CGV"]
    values[...] = integers(rng, values.shape) * (values != 0)
    return layer


def product_inputs(rng, layer, batch, dtype=np.float64):
    slots, paths, channels = layer.slot_dimension, layer.cg.num_paths, layer.channels
    shapes = [(batch, slots, channels), (batch, slots), (batch, paths, channels, channels)]
    return [integers(rng, shape, dtype) for shape in shapes]


def product_oracle(layer, x, y, w):
    """``Z[b,CGI[p,q],w] += CGV[p,q] * X[b,CGJ[p,q],u] * Y[b,CGK[p,q]] * W[b,CGL[p],u,w]``."""
    g = layer._grouped
    x, y, w = (np.asarray(a, dtype=np.float64) for a in (x, y, w))
    terms = np.einsum(
        "pq,bpqu,bpq,bpuw->bpqw", g["CGV"], x[:, g["CGJ"]], y[:, g["CGK"]], w[:, g["CGL"]]
    )
    out = np.zeros((x.shape[0], layer.slot_dimension, layer.channels))
    np.add.at(out, (slice(None), g["CGI"]), terms)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=lambda d: np.dtype(d).name)
def test_in_place_writes_between_pinned_conv_calls_are_seen(executor, dtype, rng):
    conv = conv_layer(rng, dtype)
    features = integers(rng, (conv.kernel_map.num_voxels, 5), dtype)
    np.testing.assert_array_equal(conv(features), conv_oracle(conv, features))
    features *= -2  # the caller's buffer, given again
    conv.weight[::2] *= 3  # the layer's weight, read from the attribute per call
    np.testing.assert_array_equal(conv(features), conv_oracle(conv, features))
    arrays = conv.map_arrays  # the map, read in place
    arrays["MAPY"][...] = np.roll(arrays["MAPY"], 1)
    arrays["MAPZ"][...] = arrays["MAPZ"][::-1]
    if dtype == np.float32:  # (a float64 call reads a float64 cast of MAPV, kept per dtype)
        arrays["MAPV"][1::3] = 2
    np.testing.assert_array_equal(conv(features), conv_oracle(conv, features))
    assert len(conv._memo) == 1 and pinned(conv, executor)


def test_in_place_writes_between_pinned_product_calls_are_seen(executor, rng):
    layer = product_layer(rng)
    x, y, w = product_inputs(rng, layer, batch=4)
    np.testing.assert_array_equal(layer(x, y, w), product_oracle(layer, x, y, w))
    x *= 2
    y[1] = -1
    w[:, ::2] *= 3
    grouped = layer._grouped  # the grouped CG tensor, read in place
    grouped["CGV"] *= -2
    grouped["CGJ"][...] = np.roll(grouped["CGJ"], 1)
    np.testing.assert_array_equal(layer(x, y, w), product_oracle(layer, x, y, w))
    assert len(layer._memo) == 1 and pinned(layer, executor)


def test_reassigning_the_conv_weight_is_seen(executor, rng):
    conv = conv_layer(rng)
    features = integers(rng, (conv.kernel_map.num_voxels, 5))
    conv(features)
    for weight in (integers(rng, conv.weight.shape), integers(rng, conv.weight.shape, np.float32)):
        conv.weight = weight
        result = conv(features)
        np.testing.assert_array_equal(result, conv_oracle(conv, features))
        assert result.dtype == np.float64
    assert len(conv._memo) == 2 and pinned(conv, executor)  # float64 and float32 weights


def test_a_pinned_call_is_one_counted_plan_cache_lookup(executor, rng):
    conv, layer = conv_layer(rng), product_layer(rng)
    features, inputs = integers(rng, (conv.kernel_map.num_voxels, 5)), product_inputs(rng, layer, 3)
    conv(features), layer(*inputs)
    before = get_plan_cache().stats()
    for _ in range(5):
        conv(features), layer(*inputs)
    stats = get_plan_cache().stats()
    assert (stats.hits - before.hits, stats.misses - before.misses) == (10, 0)
    clear_plan_cache()
    conv(features), layer(*inputs)
    after = get_plan_cache().stats()
    assert (after.hits, after.misses) == (0, 2)


def test_the_memos_stay_bounded_over_a_long_run_of_signatures(rng, monkeypatch):
    monkeypatch.setattr(plan_cache, "MAXSIZE", 16)
    layer = product_layer(rng, channels=2)
    for batch in range(1, 3 * plan_cache.MAXSIZE + 1):
        x, y, w = product_inputs(rng, layer, batch)
        np.testing.assert_array_equal(layer(x, y, w), product_oracle(layer, x, y, w))
        assert 1 <= len(layer._memo) <= plan_cache.MAXSIZE
    conv = conv_layer(rng, channels=(2, 3))
    dtypes = [np.float16, np.float32, np.float64, np.int8, np.int32]
    for feature_dtype in dtypes:
        for weight_dtype in dtypes:
            conv.weight = integers(rng, conv.weight.shape, weight_dtype)
            features = integers(rng, (conv.kernel_map.num_voxels, 2), feature_dtype)
            np.testing.assert_array_equal(conv(features), conv_oracle(conv, features))
            assert 1 <= len(conv._memo) <= plan_cache.MAXSIZE


def test_a_product_cycled_over_24_batch_shapes_binds_each_shape_once(rng, monkeypatch):
    binds, bind = [], FullyConnectedTensorProduct._bind

    def counted(self, operands):
        binds.append(operands["X"].shape[0])
        return bind(self, operands)

    monkeypatch.setattr(FullyConnectedTensorProduct, "_bind", counted)
    layer = product_layer(rng, channels=2)
    inputs = [product_inputs(rng, layer, batch) for batch in range(1, 25)]
    for _ in range(3):
        for x, y, w in inputs:
            np.testing.assert_array_equal(layer(x, y, w), product_oracle(layer, x, y, w))
    assert binds == list(range(1, 25))


def test_eight_threads_share_one_conv_and_one_product(executor, rng):
    conv, layer = conv_layer(rng), product_layer(rng)
    dtypes = [np.float64, np.float32]
    features = [integers(rng, (conv.kernel_map.num_voxels, 5), dtypes[t % 2]) for t in range(8)]
    inputs = [product_inputs(rng, layer, batch=2 + t % 3, dtype=dtypes[t % 2]) for t in range(8)]
    each = 20
    calls = [t for t in range(8) for _ in range(each)]

    def call(t: int) -> bytes:
        return conv(features[t]).tobytes() + layer(*inputs[t]).tobytes()

    serial = [call(t) for t in calls]
    results: dict[int, bytes] = {}
    start = threading.Barrier(8)

    def work(thread: int) -> None:
        start.wait(timeout=60)
        for i in range(each * thread, each * (thread + 1)):
            results[i] = call(calls[i])

    threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside the call path, not between calls
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [results[i] for i in range(len(calls))] == serial
    for t in range(8):  # each call reads its own buffers, not those of the entry's first call
        np.testing.assert_array_equal(conv(features[t]), conv_oracle(conv, features[t]))
        np.testing.assert_array_equal(layer(*inputs[t]), product_oracle(layer, *inputs[t]))
