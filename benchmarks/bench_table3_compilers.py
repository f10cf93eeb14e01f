"""Table 3: comparison against the TACO and SparseTIR sparse compilers.

The workload is the point-cloud convolution on the conferenceRoom scene
(FP16, channel size 128).  For each system the harness reports compile /
autotune time, format-conversion time, and kernel runtime.  Our compile and
conversion times are measured on this machine; kernel runtimes come from
the shared device model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import format_table
from repro.baselines import SparseTIRCompiler, TacoSparseCompiler
from repro.datasets import build_kernel_map, generate_scene, voxelize
from repro.kernels import SparseConv3d
from repro.utils.timing import Timer

CHANNELS = 128
MAX_POINTS = 12_000


@pytest.fixture(scope="module")
def conference_room_problem():
    voxels = voxelize(generate_scene("conferenceRoom", max_points=MAX_POINTS), 0.05)
    kernel_map = build_kernel_map(voxels)
    rng = np.random.default_rng(0)
    features = rng.standard_normal((kernel_map.num_voxels, CHANNELS)).astype(np.float32)
    return kernel_map, features


def test_table3_compiler_comparison(conference_room_problem, report, benchmark):
    kernel_map, features = conference_room_problem

    # Ours: conversion = building the grouped map; compile = Insum + backend.
    with Timer() as conversion_timer:
        conv = SparseConv3d(kernel_map, CHANNELS, CHANNELS, dtype="fp16")
    ours_runtime = conv.estimate_ms()
    tuned = conv.compiled.price(conv.dtype).autotune
    ours_compile = conv.compile_seconds + tuned.search_seconds
    ours_autotune_modeled = tuned.modeled_seconds

    taco = TacoSparseCompiler(dtype="fp16")
    taco_compile = taco.compile()
    taco_convert = taco.convert(kernel_map)
    taco_runtime = taco.modeled_ms(features, conv.weight)

    sparsetir = SparseTIRCompiler(dtype="fp16")
    sparsetir_compile = sparsetir.compile()
    sparsetir_convert = sparsetir.convert(kernel_map)
    sparsetir_runtime = sparsetir.modeled_ms(features, conv.weight)

    rows = [
        ["Compile (s)", ours_compile, taco_compile, sparsetir_compile],
        ["Autotune (s, modeled on device)", ours_autotune_modeled, 0.0, 0.0],
        ["Schedule LoC required", 1, taco.schedule_lines_of_code, sparsetir.schedule_lines_of_code],
        ["FormatConvert (ms)", conversion_timer.elapsed_ms, taco_convert, sparsetir_convert],
        ["Runtime (ms, modeled)", ours_runtime, taco_runtime, sparsetir_runtime],
    ]
    report(
        "table3_compilers",
        format_table(
            ["metric", "Ours", "TACO", "SparseTIR"],
            rows,
            title=(
                "Table 3 — compiler comparison on conferenceRoom sparse convolution "
                "(FP16, 128 ch)"
            ),
            float_format="{:.3f}",
        ),
    )

    # Shape checks: our kernel is the fastest; TACO's unscheduled kernel is
    # orders of magnitude slower; SparseTIR's CPU-side conversion dominates
    # preprocessing.
    assert ours_runtime < sparsetir_runtime < taco_runtime
    assert taco_runtime / ours_runtime > 20
    assert sparsetir_convert > taco_convert
    assert sparsetir_convert > conversion_timer.elapsed_ms * 0.5

    # Time the real NumPy execution of our convolution at reduced channels.
    small_conv = SparseConv3d(kernel_map, 32, 32, dtype="fp16")
    small_features = features[:, :32].astype(np.float64)
    result = benchmark(small_conv, small_features)
    np.testing.assert_allclose(result, small_conv.reference(small_features), atol=1e-5)
