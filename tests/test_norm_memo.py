"""``operator_norm`` is computed once per operator and arguments.

The result is kept on the ``LinearMap`` and read back by later calls, so
repeated dual forward-backward solves and least-squares terms on one
operator run the power iteration once.  The memo returns the float the
power iteration computed, so results keep their bytes.  A map given a
matrix holds a read-only copy of it, so the operator, and with it the memo,
cannot change after the build."""

import dataclasses

import numpy as np
import pytest

from proxsplit import catalog as cat
from proxsplit import problems, solvers
from proxsplit.core import (
    InvalidInputError,
    InvalidParameterError,
    LinearMap,
    identity_map,
    matrix_map,
    operator_norm,
)
from proxsplit.solvers import StoppingRule

M = np.random.default_rng(11).standard_normal((6, 4))


def counted(L: LinearMap):
    """A map with L's implementations and a count of ``apply_impl`` calls."""
    calls = [0]

    def apply_impl(x):
        calls[0] += 1
        return L.apply_impl(x)

    return LinearMap(L.rows, L.cols, apply_impl, L.adjoint_impl, name=L.name), calls


def same_bytes(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.mark.parametrize("build", [lambda: matrix_map(M), lambda: problems.first_difference(12)], ids=["matrix", "diff"])
def test_memoized_value_equals_a_fresh_maps(build):
    L, calls = counted(build())
    first = operator_norm(L)
    made = calls[0]
    assert made > 0
    assert same_bytes(operator_norm(L), first)
    assert calls[0] == made  # the second call is a lookup
    assert same_bytes(operator_norm(build()), first)


def test_distinct_arguments_are_kept_apart():
    L, calls = counted(matrix_map(M))
    keys = [dict(tol=1e-3), dict(tol=1e-3, max_iter=40), dict(tol=1e-12), dict(seed=5), dict()]
    values = []
    for kw in keys:
        before = calls[0]
        values.append(operator_norm(L, **kw))
        assert calls[0] > before, kw  # a new key runs the power iteration
    for kw, v in zip(keys, values):
        before = calls[0]
        assert same_bytes(operator_norm(L, **kw), v), kw
        assert calls[0] == before, kw
        assert same_bytes(operator_norm(matrix_map(M), **kw), v), kw
    assert len(set(values)) > 1  # the keys do give different estimates


def test_equal_arguments_share_one_entry():
    L, calls = counted(matrix_map(M))
    v = operator_norm(L, tol=1e-8, max_iter=500, seed=0)
    before = calls[0]
    assert same_bytes(operator_norm(L, tol=np.float64(1e-8), max_iter=np.int64(500), seed=np.int64(0)), v)
    assert same_bytes(operator_norm(L), v)
    assert calls[0] == before


def test_a_raising_call_caches_nothing():
    fail = [True]

    def apply_impl(x):
        if fail[0]:
            raise FloatingPointError("transient")
        return M @ x

    L = LinearMap(6, 4, apply_impl, lambda u: M.T @ u, name="flaky")
    with pytest.raises(FloatingPointError):
        operator_norm(L)
    fail[0] = False
    assert same_bytes(operator_norm(L), operator_norm(matrix_map(M)))


def test_non_converged_estimate_warns_on_every_call():
    L = problems.first_difference(120)
    values = []
    for _ in range(2):
        with pytest.warns(RuntimeWarning, match="did not converge in 500 steps"):
            values.append(operator_norm(L))
    assert same_bytes(*values)


def test_replace_starts_with_an_empty_memo():
    L, calls = counted(matrix_map(M))
    v = operator_norm(L)
    before = calls[0]
    other = dataclasses.replace(L, name="other")
    assert same_bytes(operator_norm(other), v)
    assert calls[0] > before


@pytest.mark.parametrize(
    "kw, name",
    [
        (dict(tol=0.0), "tol"),
        (dict(tol=-1e-8), "tol"),
        (dict(tol=float("nan")), "tol"),
        (dict(tol=float("inf")), "tol"),
        (dict(tol="x"), "tol"),
        (dict(tol=None), "tol"),
        (dict(tol=True), "tol"),
        (dict(max_iter=0), "max_iter"),
        (dict(max_iter=-1), "max_iter"),
        (dict(max_iter=2.5), "max_iter"),
        (dict(max_iter="3"), "max_iter"),
        (dict(max_iter=True), "max_iter"),
        (dict(seed=None), "seed"),
        (dict(seed=-1), "seed"),
        (dict(seed=1.5), "seed"),
        (dict(seed="0"), "seed"),
        (dict(seed=False), "seed"),
    ],
    ids=repr,
)
def test_bad_arguments_raise_a_named_error(kw, name):
    L, calls = counted(matrix_map(np.diag([3.0, 1.0])))
    with pytest.raises(InvalidParameterError, match=name):
        operator_norm(L, **kw)
    assert calls[0] == 0


def test_repeated_dual_solves_compute_the_norm_once(monkeypatch):
    r = np.repeat([0.0, 1.5, -0.5, 1.0], 10) + 0.1 * np.random.default_rng(3).standard_normal(40)
    inst = problems.build_tv1d(r, 1.0)
    L, calls = counted(inst.components["dual"]["L"])
    components = dict(inst.components, dual=dict(inst.components["dual"], L=L))
    inst = dataclasses.replace(inst, components=components)
    in_norm = [0]

    def norm_counting(*args, **kwargs):
        before = calls[0]
        try:
            return operator_norm(*args, **kwargs)
        finally:
            in_norm[0] += calls[0] - before

    monkeypatch.setattr(solvers, "operator_norm", norm_counting)
    results, totals, norm_calls = [], [], []
    for _ in range(2):
        before, before_norm = calls[0], in_norm[0]
        results.append(problems.run_instance(inst, "dual_forward_backward"))
        totals.append(calls[0] - before)
        norm_calls.append(in_norm[0] - before_norm)
    first, second = results
    assert first.converged and second.converged
    assert first.final_x.tobytes() == second.final_x.tobytes()
    assert first.iterations == second.iterations
    assert norm_calls[0] > 0 and norm_calls[1] == 0
    assert totals[1] == totals[0] - norm_calls[0]


def test_list_output_still_raises_on_iteration_0_of_a_second_solve():
    # the memo skips operator_norm's public calls, which would convert a
    # list: the loop's own check on iteration 0 still refuses it
    calls = [0]

    def apply_impl(v):
        calls[0] += 1
        return list(2.0 * v)

    L = LinearMap(2, 2, apply_impl, lambda u: 2.0 * u, name="bad")
    h, g, r = cat.zero_fn(2), cat.quadratic_deviation([0.5, -0.5]), np.array([1.0, -2.0])
    for solve in range(2):
        before = calls[0]
        with pytest.raises(InvalidInputError, match="bad.apply_impl"):
            solvers.dual_forward_backward(h, g, L, r, stop=StoppingRule(max_iter=50))
        if solve:
            assert calls[0] - before == 1  # iteration 0 alone


def test_matrix_map_keeps_a_read_only_copy():
    A = np.diag([3.0, 1.0])
    L = matrix_map(A)
    norm = operator_norm(L)
    A[0, 0] = 100.0
    assert L.matrix is not A and L.matrix[0, 0] == 3.0
    assert L.apply(np.array([1.0, 0.0])).tolist() == [3.0, 0.0]
    assert L.apply(np.array([[1.0, 0.0]])).tolist() == [[3.0, 0.0]]
    assert same_bytes(operator_norm(L), norm)
    with pytest.raises(ValueError, match="read-only"):
        L.matrix[0, 0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        identity_map(2).matrix[0, 0] = 5.0
    dense = L.to_dense()
    dense[0, 0] = 7.0  # to_dense is the caller's own copy
    assert L.matrix[0, 0] == 3.0


def test_matrix_map_copy_keeps_the_products_bytes():
    x = np.random.default_rng(2).standard_normal(6)
    for A in (M.T, np.asfortranarray(M.T), M.T.copy()):
        L = matrix_map(A)
        assert L.matrix.flags.f_contiguous == A.flags.f_contiguous
        assert L.apply(x).tobytes() == (A @ x).tobytes()
        assert L.adjoint(L.apply(x)).tobytes() == (A.T @ (A @ x)).tobytes()


def test_a_given_matrix_is_kept_as_a_read_only_copy():
    A = np.diag([3.0, 1.0])
    V = A[:, :]
    V.flags.writeable = False  # a read-only view of a writable array is copied too
    L = LinearMap(2, 2, matrix=A)  # the implementations multiply by the copy
    T = LinearMap(2, 2, lambda x: A @ x, lambda u: A.T @ u, matrix=A)
    W = LinearMap(2, 2, matrix=V)
    norm = operator_norm(L)
    A[0, 0] = 100.0
    for K in (L, T, W):
        assert K.matrix is not A and not K.matrix.flags.writeable
        assert K.to_dense().tolist() == [[3.0, 0.0], [0.0, 1.0]]
        assert K.apply(np.array([[1.0, 0.0]])).tolist() == [[3.0, 0.0]]
    assert L.apply(np.array([1.0, 0.0])).tolist() == [3.0, 0.0]
    assert L.adjoint(np.array([1.0, 0.0])).tolist() == [3.0, 0.0]
    assert same_bytes(operator_norm(L), norm)


@pytest.mark.parametrize("impls", [(), (lambda x: x,), (None, lambda u: u)], ids=["none", "no_adjoint", "no_apply"])
def test_a_map_without_a_matrix_needs_both_implementations(impls):
    with pytest.raises(InvalidParameterError, match="apply_impl and adjoint_impl"):
        LinearMap(2, 2, *impls)


def test_a_given_matrix_is_checked():
    with pytest.raises(InvalidParameterError, match="matrix entries must be finite"):
        LinearMap(1, 2, matrix=np.array([[1.0, np.nan]]))
