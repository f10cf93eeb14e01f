"""The tuner's rule, auto_format, the decision cache, and format="auto"."""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import auto_format, get_plan_cache, insum, sparse_einsum
from repro.core.insum.api import SparseEinsum
from repro.datasets import random_block_sparse_matrix, random_sparse_matrix
from repro.errors import EinsumValidationError
from repro.formats import COO, GroupCOO
from repro.formats.base import SparseFormat
from repro.formats.group_size import select_group_size
from repro.tuner import Candidate, enumerate_candidates, get_decision_cache
from repro.tuner.auto import choose_format
from repro.tuner.profile import profile_operand

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def uniform(rng):
    return random_sparse_matrix((96, 80), 0.08, rng=rng).astype(np.float64)


@pytest.fixture
def blocky():
    return random_block_sparse_matrix(96, (16, 16), 0.12, rng=1).astype(np.float64)


# ---------------------------------------------------------------------------
# auto_format
# ---------------------------------------------------------------------------
def test_auto_format_returns_fixed_length_format(uniform):
    fmt = auto_format(uniform)
    assert isinstance(fmt, SparseFormat)
    assert fmt.fixed_length
    np.testing.assert_allclose(fmt.to_dense(), uniform)


def test_auto_format_picks_block_format_on_block_data(blocky):
    fmt = auto_format(blocky)
    assert fmt.format_name in ("BlockCOO", "BlockGroupCOO")
    np.testing.assert_allclose(fmt.to_dense(), blocky)


def test_auto_format_reformats_a_sparse_instance(blocky):
    coo = COO.from_dense(blocky)
    fmt = auto_format(coo)
    assert fmt.format_name != "COO"
    np.testing.assert_allclose(fmt.to_dense(), blocky)


def test_auto_format_keeps_matching_instance(uniform):
    fmt = auto_format(uniform)
    again = auto_format(fmt)
    assert again is fmt  # already in the chosen format: no conversion


def test_the_rule_decides_and_only_its_pick_is_built(uniform, monkeypatch):
    """No candidate is built, compiled or timed to make the decision: the one
    build is the pick's, from the matrix, on a miss and on a hit alike."""
    from repro.tuner.auto import auto_format_with_decision
    from repro.tuner.candidates import Candidate

    built: list[tuple[Candidate, SparseFormat]] = []
    build = Candidate.build

    def counting(candidate, dense):
        built.append((candidate, build(candidate, dense)))
        return built[-1][1]

    monkeypatch.setattr(Candidate, "build", counting)
    for _ in range(2):  # a miss, then a hit
        built.clear()
        fmt, decision = auto_format_with_decision(uniform, n_cols=32)
        assert [candidate for candidate, _ in built] == [decision.candidate]
        assert built[0][1] is fmt
    assert decision.bucket == (*profile_operand(uniform).bucket(), 32)
    assert decision.reason.startswith(f"{decision.candidate.describe()}: ")
    assert decision.describe() == f"tuner decision: {decision.reason}"


# ---------------------------------------------------------------------------
# Decision cache
# ---------------------------------------------------------------------------
def test_decisions_are_cached_by_bucket(uniform):
    cache = get_decision_cache()
    profile = profile_operand(uniform)
    first = choose_format(profile)
    assert len(cache) == 1
    # Same regime, different values: served from the cache.
    similar = random_sparse_matrix((96, 80), 0.08, rng=999).astype(np.float64)
    second = choose_format(profile_operand(similar))
    assert second is first
    assert cache.hits >= 1


def test_different_regimes_get_different_decisions(uniform, blocky):
    uniform_choice = choose_format(profile_operand(uniform))
    # Pad the blocky matrix profile to the same shape? Different shapes are
    # different buckets already; assert the candidate differs by regime.
    block_choice = choose_format(profile_operand(blocky))
    assert uniform_choice.candidate != block_choice.candidate


# ---------------------------------------------------------------------------
# insum / sparse_einsum format="auto"
# ---------------------------------------------------------------------------
def test_insum_format_auto_matches_dense_reference(uniform, rng):
    dense_rhs = rng.standard_normal((80, 24))
    out = insum("C[m,n] += A[m,k] * B[k,n]", A=uniform, B=dense_rhs, format="auto")
    np.testing.assert_allclose(out, uniform @ dense_rhs)


def test_insum_named_format(uniform, rng):
    dense_rhs = rng.standard_normal((80, 16))
    for name in ("coo", "ell", "groupcoo"):
        out = insum("C[m,n] += A[m,k] * B[k,n]", A=uniform, B=dense_rhs, format=name)
        np.testing.assert_allclose(out, uniform @ dense_rhs, err_msg=name)


def test_insum_format_class(uniform, rng):
    dense_rhs = rng.standard_normal((80, 16))
    out = insum("C[m,n] += A[m,k] * B[k,n]", A=uniform, B=dense_rhs, format=GroupCOO)
    np.testing.assert_allclose(out, uniform @ dense_rhs)


def test_insum_named_block_formats(blocky, rng):
    """Named block formats derive the block shape from the profile."""
    dense_rhs = rng.standard_normal((96, 16))
    for name in ("blockcoo", "blockgroupcoo"):
        out = insum("C[m,n] += A[m,k] * B[k,n]", A=blocky, B=dense_rhs, format=name)
        np.testing.assert_allclose(out, blocky @ dense_rhs, err_msg=name)


def test_variable_length_formats_rejected(uniform, rng):
    from repro.formats import CSR

    dense_rhs = rng.standard_normal((80, 4))
    with pytest.raises(EinsumValidationError):
        insum("C[m,n] += A[m,k] * B[k,n]", A=uniform, B=dense_rhs, format="csr")
    with pytest.raises(EinsumValidationError):
        insum("C[m,n] += A[m,k] * B[k,n]", A=uniform, B=dense_rhs, format=CSR)


def test_insum_without_format_is_untouched(uniform, rng):
    """The raw indirect-Einsum path must not change behaviour."""
    coo = COO.from_dense(uniform)
    dense_rhs = rng.standard_normal((80, 8))
    out = insum(
        "C[AM[p],n] += AV[p] * B[AK[p],n]",
        C=np.zeros((96, 8)),
        AV=coo.values,
        AM=coo.coords[0],
        AK=coo.coords[1],
        B=dense_rhs,
    )
    np.testing.assert_allclose(out, uniform @ dense_rhs)


def test_unknown_format_name_raises(uniform, rng):
    with pytest.raises(EinsumValidationError):
        insum(
            "C[m,n] += A[m,k] * B[k,n]", A=uniform, B=rng.standard_normal((80, 4)), format="dense"
        )


def test_sparse_operand_disambiguation(rng):
    sparse_a = random_sparse_matrix((32, 32), 0.1, rng=rng)
    sparse_b = random_sparse_matrix((32, 32), 0.1, rng=rng)
    out = sparse_einsum(
        "C[m,n] += A[m,k] * B[k,n]",
        A=sparse_a,
        B=sparse_b,
        format="auto",
        sparse_operand="B",
    )
    np.testing.assert_allclose(out, sparse_a @ sparse_b, rtol=1e-5, atol=1e-6)


def test_auto_operator_records_decision(uniform, rng):
    op = SparseEinsum("C[m,n] += A[m,k] * B[k,n]", format="auto")
    out = op(A=uniform, B=rng.standard_normal((80, 16)))
    assert out.shape == (96, 16)
    assert op.last_decision is not None
    assert op.last_decision.reason in op.last_decision.describe()


# ---------------------------------------------------------------------------
# The rule, on both executors
# ---------------------------------------------------------------------------
def _rows_of(occupancy, cols, seed) -> np.ndarray:
    """A matrix whose row ``i`` holds ``occupancy[i]`` nonzeros."""
    rng = np.random.default_rng(seed)
    dense = np.zeros((len(occupancy), cols))
    for row, occ in enumerate(occupancy):
        dense[row, rng.choice(cols, size=occ, replace=False)] = rng.standard_normal(occ)
    return dense


def _powerlaw(size=256, seed=3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return _rows_of(np.minimum(size, (rng.pareto(1.1, size) * 4 + 1).astype(int)), size, seed)


def _decide(dense):
    return choose_format(profile_operand(dense), use_cache=False)


@pytest.mark.parametrize("rows, per_row", [(512, 12), (256, 32)])
def test_ell_on_rows_of_exactly_equal_length(executor, rows, per_row):
    decision = _decide(_rows_of([per_row] * rows, rows, seed=rows + per_row))
    assert decision.candidate == Candidate("ELL")
    assert decision.reason == f"ELL: {rows} rows of {per_row}, nothing padded"


def test_one_empty_row_is_padding_so_no_ell(executor):
    decision = _decide(_rows_of([12] * 255 + [0], 256, seed=1))
    assert decision.candidate.format_name != "ELL"


def test_a_16x16_block_over_8x8_and_4x4_on_full_tiles(executor):
    dense = random_block_sparse_matrix(256, (16, 16), 0.1, rng=9)
    profile = profile_operand(dense)
    assert all(profile.block_scores[(b, b)] == pytest.approx(1.0) for b in (4, 8, 16))
    decision = choose_format(profile, use_cache=False)
    assert decision.candidate.format_name in ("BlockCOO", "BlockGroupCOO")
    assert decision.candidate.block_shape == (16, 16)
    assert "block fill 1.00" in decision.reason


def test_no_block_format_on_unstructured_data(executor):
    decision = _decide(random_sparse_matrix((256, 256), 0.05, rng=2))
    assert decision.candidate.block_shape is None
    assert decision.candidate.format_name in ("COO", "GroupCOO")


@pytest.mark.parametrize("executor", ["C"], indirect=True)
def test_coo_where_plans_compile(executor):
    """The emitted loop sums a row's run in registers: group size 1, COO and
    BlockCOO, whatever Section 4.2 would say."""
    decision = _decide(_powerlaw())
    assert decision.candidate == Candidate("COO")
    assert decision.reason == "COO: plans compile, so g=1"
    blocky = _decide(random_block_sparse_matrix(256, (16, 16), 0.1, rng=9))
    assert blocky.candidate == Candidate("BlockCOO", block_shape=(16, 16))
    assert blocky.reason.endswith("plans compile, so g=1")


@pytest.mark.parametrize("executor", ["steps"], indirect=True)
@pytest.mark.parametrize("rows", ["powerlaw", "exactly padded"])
def test_the_section_4_2_group_size_on_the_step_list(executor, rows):
    if rows == "powerlaw":
        dense = _powerlaw()
    else:  # rows of 16, 32, 48 or 64: every g <= 16 pads nothing, F(g) is least at 16
        dense = _rows_of(np.random.default_rng(12).choice([16, 32, 48, 64], size=256), 256, 12)
    profile = profile_operand(dense)
    g = select_group_size(profile.occupancy)
    decision = choose_format(profile, use_cache=False)
    assert g > 1 and decision.candidate == Candidate("GroupCOO", group_size=g)
    assert decision.reason == f"GroupCOO(g={g}): §4.2 over {profile.nonempty_rows} rows"
    assert decision.candidate in enumerate_candidates(profile)
    if rows == "exactly padded":
        assert g == 16 and decision.candidate.build(dense).values.size == profile.nnz


def test_block_group_size_is_section_4_2_over_block_rows(executor):
    dense = random_block_sparse_matrix(512, (16, 16), 0.1, rng=4)
    profile = profile_operand(dense)
    stats = profile.blocks[(16, 16)]
    g = 1 if executor == "C" else select_group_size(stats.occupancy)
    decision = choose_format(profile, use_cache=False)
    assert decision.candidate.group_size == (g if g > 1 else None)
    assert decision.candidate in enumerate_candidates(profile)


def test_a_decision_times_nothing_and_builds_no_kernel(executor, uniform, monkeypatch):
    """The decision is read off the profile: with every timer and every
    kernel build made to raise, ``auto_format`` still answers."""
    import repro.utils.timing as timing
    from repro.engine.specialize import SpecializedKernel

    def refuse(*args, **kwargs):
        raise AssertionError("the tuner timed or built something")

    monkeypatch.setattr(timing, "Timer", refuse)
    monkeypatch.setattr(SpecializedKernel, "build", refuse)
    for dense in (uniform, _powerlaw(), random_block_sparse_matrix(96, (16, 16), 0.12, rng=1)):
        fmt = auto_format(dense)
        np.testing.assert_array_equal(fmt.to_dense(), dense)


def test_a_fresh_process_decides_without_compiling(tmp_path):
    """Reaching the first ``format="auto"`` decision on an empty object
    cache compiles nothing."""
    script = (
        "import numpy as np\n"
        "from repro.tuner import auto_format\n"
        "dense = np.where(np.random.default_rng(0).random((64, 64)) < 0.1, 1.0, 0.0)\n"
        "print(auto_format(dense).format_name)\n"
    )
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() in ("COO", "GroupCOO", "ELL")
    kernels = tmp_path / "repro" / "kernels"
    assert not kernels.exists() or not any(kernels.iterdir())


# ---------------------------------------------------------------------------
# Fork safety: a cluster worker re-arms the decision cache's lock
# ---------------------------------------------------------------------------
def _decide_after_fork(dense, queue):
    from repro.cluster.worker import _reinit_after_fork

    _reinit_after_fork()
    assert get_plan_cache().get(("absent",)) is None
    queue.put(choose_format(profile_operand(dense)).candidate.describe())


def test_a_forked_worker_decides_though_the_parent_held_the_decision_lock(uniform):
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    # Threads of the parent are inside both caches when the worker forks.
    with get_decision_cache()._lock, get_plan_cache()._lock:
        child = context.Process(target=_decide_after_fork, args=(uniform, queue))
        child.start()
    try:
        described = queue.get(timeout=60)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
    assert described == choose_format(profile_operand(uniform)).candidate.describe()
    assert child.exitcode == 0
