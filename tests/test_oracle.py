"""Independent verification machinery: the grid search and the direct
finite-sample convex solve must stand on their own, so they are tested
against analytic optima, and the grid search also against its earlier
one-face-at-a-time form (`grid_reference`), value for value, and its
batched call against its one-problem call."""

import numpy as np
import pytest

from crsum import (ConstraintCase, FadingModel, PowerBudget, UsageError, cli,
                   cutting_plane_solve, grid_state_oracle, grid_state_oracles, oracle,
                   saa_primal_oracle, sample_mac_states)
from crsum.fading import ChannelStateMac
from crsum.oracle import (MAX_MESH_POINTS, case1_problem, case2_problem,
                          case3_problem, case4_problem)

import grid_reference


def test_grid_oracle_concave_quadratic():
    """Interior optimum of a separable concave quadratic."""
    target = np.array([0.31, 0.57])

    def obj(X):
        return -((X - target) ** 2).sum(axis=1)

    x, v = grid_state_oracle(obj, np.array([1.0, 1.0]), grid_step=1e-6)
    np.testing.assert_allclose(x, target, atol=1e-5)
    assert abs(v) < 1e-9


def test_grid_oracle_boundary_optimum():
    """Optimum on a halfspace boundary is found by the ray extension."""
    def obj(X):
        return X.sum(axis=1)

    halfspaces = [(np.array([1.0, 1.0]), 0.7)]
    x, v = grid_state_oracle(obj, np.array([1.0, 1.0]), halfspaces,
                             grid_step=1e-6)
    assert abs(v - 0.7) < 1e-9
    assert abs(x.sum() - 0.7) < 1e-9


def test_grid_oracle_log_water_fill():
    """1-D water-filling against the analytic interior point."""
    h, lam = 3.0, 0.4

    def obj(X):
        return np.log1p(h * X[:, 0]) - lam * X[:, 0]

    x, v = grid_state_oracle(obj, np.array([10.0]), grid_step=1e-7)
    p_star = 1.0 / lam - 1.0 / h
    assert abs(x[0] - p_star) < 1e-6
    assert abs(v - (np.log1p(h * p_star) - lam * p_star)) < 1e-12


def _c_contiguous_rows(objective, K):
    """The objective, asserting the grid oracle's input contract."""
    def checked(X):
        assert X.ndim == 2 and X.shape[1] == K and X.flags.c_contiguous
        return objective(X)
    return checked


def _case_problems(state, rng):
    K, M = state.g.shape
    lam, mu = rng.uniform(0.2, 2.0, K), rng.uniform(0.2, 2.0, M)
    caps, gam = rng.uniform(0.3, 3.0, K), rng.uniform(0.5, 2.0, M)
    return [case1_problem(state, lam, mu), case2_problem(state, lam, gam),
            case3_problem(state, mu, caps), case4_problem(state, caps, gam)]


def _random_problems(n_states=50):
    rng = np.random.default_rng(20261018)
    for _ in range(n_states):
        K, M = int(rng.integers(1, 4)), int(rng.integers(0, 3))
        state = ChannelStateMac(h=rng.exponential(1.0, K),
                                g=rng.exponential(1.0, (K, M)))
        yield from _case_problems(state, rng)


def _degenerate_problems():
    rng = np.random.default_rng(7)
    h, g = np.array([1.3, 0.0, 2.1]), np.array([[0.9, 0.0], [0.4, 0.0], [1.5, 0.0]])
    g1 = g[:, :1]
    yield pytest.param(*case4_problem(ChannelStateMac(h=h, g=g1), [0.0, 1.2, 0.0], [1.0]),
                       id="upper bounds of 0")
    yield pytest.param(*_case_problems(ChannelStateMac(h=h, g=g1), rng)[1],
                       id="user without gain")
    for case, problem in enumerate(_case_problems(ChannelStateMac(h=h, g=g), rng)):
        yield pytest.param(*problem, id=f"zero column of g, case {case + 1}")
    obj, up, _ = case4_problem(ChannelStateMac(h=h, g=g1), [1.0, 1.0, 1.0], [1.0])
    yield pytest.param(obj, up, [(g1[:, 0], 1.0), (2.0 * g1[:, 0], 2.0)],
                       id="parallel halfspaces")
    yield pytest.param(*case4_problem(ChannelStateMac(h=h, g=g1), [1.0, 0.5, 0.8], [1e6]),
                       id="halfspace that never binds")
    yield pytest.param(*case4_problem(ChannelStateMac(h=h[:2], g=g[:2]), [0.7, 0.9],
                                      [0.5, 3.0]), id="K = 2, zero column of g")
    yield pytest.param(lambda X: -((X - 0.6) ** 2).sum(axis=1), np.ones(3),
                       [(np.ones(3), 1.2)], id="pivots of equal determinant")


def _quadratic_problems(n=60):
    """Concave quadratics whose unconstrained peak lies mostly outside
    the feasible set, so the optimum sits on some face."""
    rng = np.random.default_rng(31)
    for _ in range(n):
        K, J = int(rng.integers(2, 4)), int(rng.integers(1, 3))
        target = rng.uniform(-0.5, 2.5, K)
        hs = [(rng.uniform(0.2, 1.5, K), rng.uniform(0.5, 1.5)) for _ in range(J)]
        yield (lambda X, t=target: -((X - t) ** 2).sum(axis=1),
               rng.uniform(0.5, 2.0, K), hs)


def _assert_oracle_matches(obj, upper, hs):
    """The oracle's value and point equal the reference's to the last
    bit, and the objective only ever sees C-contiguous (N, K) arrays."""
    p, v = grid_state_oracle(_c_contiguous_rows(obj, len(upper)), upper, hs,
                             grid_step=1e-3)
    p_ref, v_ref = grid_reference.grid_state_oracle(obj, upper, hs, grid_step=1e-3)
    assert v == v_ref
    np.testing.assert_array_equal(p, p_ref)


def _face_candidates(objective, upper, halfspaces, grid_step, points_per_dim, max_rounds):
    """One problem's best face point and value, (None, -inf) if none is feasible."""
    best = [(None, -np.inf)]
    oracle._improve_on_faces([(objective, upper, *map(np.array, zip(*halfspaces)))], best,
                             grid_step, points_per_dim, max_rounds)
    return best[0]


def _assert_faces_match(obj, upper, hs):
    """The face search alone: the best face's value and point, to the
    last bit. The box grid often reaches the same optimum, so the whole
    oracle's result would hide most faces refined wrongly or skipped."""
    upper = np.asarray(upper, dtype=float)
    hs = [(np.asarray(a, dtype=float), float(b)) for a, b in hs]
    fp, fv = _face_candidates(_c_contiguous_rows(obj, len(upper)), upper, hs, 1e-3, 21, 80)
    fp_ref, fv_ref = grid_reference._face_candidates(obj, upper, hs, 1e-3, 21)
    assert fv == fv_ref
    np.testing.assert_array_equal(fp, fp_ref)


def test_grid_oracle_matches_reference():
    """200 random instances: K 1-3, M 0-2, cases I-IV."""
    for obj, upper, hs in _random_problems():
        _assert_oracle_matches(obj, upper, hs)
        if hs:
            _assert_faces_match(obj, upper, hs)


def test_face_search_matches_reference():
    for obj, upper, hs in _quadratic_problems():
        _assert_faces_match(obj, upper, hs)


@pytest.mark.parametrize("obj, upper, hs", _degenerate_problems())
def test_grid_oracle_matches_reference_degenerate(obj, upper, hs):
    _assert_oracle_matches(obj, upper, hs)
    if hs:
        _assert_faces_match(obj, upper, hs)


_G3 = np.array([[0.9, 0.4], [0.6, 1.1], [1.5, 0.8]])

# (objective rows, one-row calls) of one call on the case-IV problems below,
# keyed by (caps, M); the reference evaluates 55,126, 74,177 and 74,177 rows at
# caps (0, 0, 1.7), 55,546, 77,495 and 79,036 at (0, 1.2, 0.9), and 9,262 at
# (0, 0, 0), with 1, 5, 5, 1, 5, 7, 1, 1 and 1 one-row calls
DEAD_USER_CALLS = {((0.0, 0.0, 1.7), 0): (126, 1), ((0.0, 0.0, 1.7), 1): (232, 2),
                   ((0.0, 0.0, 1.7), 2): (232, 2), ((0.0, 1.2, 0.9), 0): (2646, 1),
                   ((0.0, 1.2, 0.9), 1): (3866, 3), ((0.0, 1.2, 0.9), 2): (4020, 4),
                   ((0.0, 0.0, 0.0), 0): (22, 1), ((0.0, 0.0, 0.0), 1): (22, 1),
                   ((0.0, 0.0, 0.0), 2): (22, 1)}


def _recorded(objective, calls):
    def recording(X):
        calls.append(X.copy())
        return objective(X)
    return recording


def _assert_calls_match(obj, up, hs):
    """The oracle's result equals the reference's bit for bit; returns both
    calls' (objective rows, one-row calls), and checks that a one-row call
    only evaluates a point the reference evaluates in one row."""
    calls, calls_ref = [], []
    p, v = grid_state_oracle(_c_contiguous_rows(_recorded(obj, calls), len(up)), up, hs)
    p_ref, v_ref = grid_reference.grid_state_oracle(_recorded(obj, calls_ref), up, hs)
    assert v == v_ref
    np.testing.assert_array_equal(p, p_ref)
    lone, lone_ref = ([tuple(X[0]) for X in c if len(X) == 1] for c in (calls, calls_ref))
    assert set(lone) <= set(lone_ref)
    return [(sum(map(len, c)), len(one)) for c, one in ((calls, lone), (calls_ref, lone_ref))]


@pytest.mark.parametrize("M", [0, 1, 2])
@pytest.mark.parametrize("caps", [(0.0, 0.0, 1.7), (0.0, 1.2, 0.9), (0.0, 0.0, 0.0)])
def test_dead_users_refine_on_fewer_rows(caps, M):
    """A 3-user box whose users with a zero cap are dead meshes only the
    other axes, and its faces skip what repeats: the reference's result bit
    for bit from pinned, far fewer objective rows."""
    state = ChannelStateMac(h=np.array([1.3, 0.7, 2.1]), g=_G3[:, :M])
    obj, up, hs = case4_problem(state, caps, [0.8, 1.1][:M])
    (rows, lone), (rows_ref, _) = _assert_calls_match(obj, up, hs)
    assert (rows, lone) == DEAD_USER_CALLS[caps, M] and rows < rows_ref
    if hs:
        _assert_faces_match(obj, up, hs)


def test_lone_point_of_a_face_with_copies_is_evaluated_in_a_batch():
    """The face of the halfspace with user 1 free at its zero cap holds one
    feasible point in its first round (user 2 at 1.0, user 3 the pivot at
    0.005). The reference's mesh holds 21 copies of it, so it is evaluated
    in a batch of two rows, not alone: 4 one-row calls (the origin, two
    vertices and a face without copies; the reference makes 7, 3 of them for
    faces that repeat)."""
    state = ChannelStateMac(h=np.array([1.3, 0.7, 2.1]), g=np.array([[0.5], [0.6], [2.0]]))
    obj, up, hs = case4_problem(state, [0.0, 2.0, 0.02], [0.61])
    (rows, lone), (rows_ref, lone_ref) = _assert_calls_match(obj, up, hs)
    assert (rows, lone) == (3689, 4) and (rows_ref, lone_ref) == (75448, 7)


def test_box_phase_matches_reference(monkeypatch):
    """The box refinement alone, bit for bit, where the last user is dead:
    a round with one infeasible mesh point, 21 copies in the reference's
    mesh, clips it by a product of two rows, which rounds like the
    reference's batch where one row alone would not."""
    monkeypatch.setattr(oracle, "_improve_on_faces", lambda *args: None)
    monkeypatch.setattr(grid_reference, "_face_candidates", lambda *args: (None, -np.inf))
    state = ChannelStateMac(h=np.array([0.04, 1.85, 0.21]), g=np.array([[1.23], [1.3], [1.57]]))
    _assert_calls_match(*case4_problem(state, [0.41, 0.69, 0.0], [1.399]))
    for obj, up, hs in _random_problems(20):
        _assert_calls_match(obj, up, hs)


def test_perstate_suite_problems_match_reference():
    """The perstate suite's own mix at its grid_step: 40 draws of
    `cli._random_cases`, cases I-IV, among them 68 3-user boxes with 0-2
    halfspaces, 33 of them with a dead user; every point and value
    equals the reference's bit for bit."""
    rng = np.random.Generator(np.random.Philox(key=1))
    problems = [problem(state, *args) for state, cases in
                (cli._random_cases(rng, 1) for _ in range(40))
                for _, _, args, problem, _, _ in cases]
    assert sum(len(up) == 3 for _, up, _ in problems) == 68
    for (obj, up, hs), (p, v) in zip(problems, grid_state_oracles(problems, grid_step=1e-4)):
        p_ref, v_ref = grid_reference.grid_state_oracle(obj, up, hs, grid_step=1e-4)
        assert v == v_ref
        np.testing.assert_array_equal(p, p_ref)


@pytest.mark.parametrize("plateau, mesh_reaches", [(1.5, True), (2.211, False)])
@pytest.mark.parametrize("h, upper", [((1.0, 2.0), (1.0, 1.0)),
                                      ((1.0, 0.5, 2.0), (1.0, 0.0, 1.0)),
                                      ((1.0, 0.5, 2.0), (1.0, 0.4, 1.0))])
def test_plateau_ties_go_to_the_first_candidate(h, upper, plateau, mesh_reaches):
    """min(p.h, plateau) under p.1 <= 1.23: in the first round the points
    pushed along their ray and the infeasible points clipped toward the
    origin reach the plateau, and so do the feasible mesh points at 1.5
    (at 2.211 they stop at 2.2 or 2.21). The reference's first maximum
    (mesh, then ray, then clipped points) must win every round."""
    h, upper, hs = np.array(h), np.array(upper), [(np.ones(len(h)), 1.23)]

    def obj(X):
        return np.minimum(X @ h, plateau)

    pts = grid_reference._mesh(np.zeros(len(h)), upper, 21)
    feas = pts.sum(axis=1) <= 1.23 * (1.0 + 1e-12)
    blocks = (pts[feas], grid_reference._ray_extend(pts, upper, hs),
              grid_reference._clip_toward(pts[~feas], np.zeros(len(h)), hs))
    assert [obj(X).max() == plateau for X in blocks] == [mesh_reaches, True, True]
    _assert_oracle_matches(obj, upper, hs)


@pytest.mark.parametrize("caps, n_faces",[((0.0, 1.2, 0.9), 34), ((0.0, 0.0, 1.7), 25),
                                           ((0.0, 0.0, 0.0), 18), ((0.5, 1.2, 0.9), 45)])
def test_faces_are_listed_once(caps, n_faces):
    """K = 3, M = 2: 45 faces when no bound is zero. A coordinate fixed at
    its zero bound has one pattern, not a 0 and a 1 that repeat each other,
    so no two faces share x0 (fixed values and pivot offsets), cols and W."""
    state = ChannelStateMac(h=np.array([1.3, 0.7, 2.1]), g=_G3)
    _, up, hs = case4_problem(state, caps, [0.8, 1.1])
    A, b = map(np.array, zip(*hs))
    q, _, x0, cols, W, *_ = oracle._faces(up[None], A[None], b[None])
    assert len(q) == n_faces
    assert len({(x.tobytes(), c.tobytes(), w.tobytes()) for x, c, w in zip(x0, cols, W)}) \
        == n_faces


# faces `_may_hold_points` drops, by (free coordinates d, users K), among those of
# the perstate suite's problems with halfspaces: 40 draws at Philox key 1 and the
# 100 of verify --seed 0: 2,626 of the 3,536 faces, where 2,655 are never feasible
DROPPED = {(0, 1): 106, (0, 2): 397, (0, 3): 1420, (1, 2): 73, (1, 3): 554, (2, 3): 76}


def test_dropped_faces_hold_no_point():
    """Every listed face of these problems, refined without the drop: each
    face the interval test drops refines to -inf, so it would make no
    objective call, and dropping it moves no row, call or tie."""
    rngs = [np.random.Generator(np.random.Philox(key=key)) for key in (1, 0)]
    problems = [problem(state, *args) for rng, n in zip(rngs, (40, 100))
                for state, cases in (cli._random_cases(rng, 1) for _ in range(n))
                for _, _, args, problem, _, _ in cases]
    probs = [(obj, np.asarray(up, dtype=float), *map(np.array, zip(*hs)))
             for obj, up, hs in problems if hs]
    dropped, counts = {}, [0, 0]
    for J, K in {A.shape for *_, A, _ in probs}:
        ps = [p for p in probs if p[2].shape == (J, K)]
        q, d, *faces = oracle._faces(*(np.array([p[k] for p in ps]) for k in (1, 2, 3)))
        keep = oracle._may_hold_points(d, *faces)
        free = np.arange(K) < d[:, None]
        key = np.column_stack([d, oracle._span(np.where(free, faces[-1], 0.0)) & free])
        for row in np.unique(key, axis=0):
            ids = np.flatnonzero((key == row).all(axis=1))
            v, _ = oracle._refine_faces(ps, q[ids], row[1:1 + row[0]].astype(bool),
                                        [z[ids] for z in faces], 1e-4, 21, 80)
            assert np.isneginf(v[~keep[ids]]).all()
            counts[0] += len(ids)
            counts[1] += int(np.isneginf(v).sum())
        for dd in range(K):
            dropped[dd, K] = dropped.get((dd, K), 0) + int((~keep & (d == dd)).sum())
    assert dropped == DROPPED and counts == [3536, 2655]


@pytest.mark.parametrize("miss, kept", [(1e-13, True), (1e-6, False)])
def test_faces_are_dropped_only_beyond_the_rounding_margin(monkeypatch, miss, kept):
    """p1 + p2 <= 2 + 1e-12 + miss on the unit box. Its edge face pivots
    p1 = b - p2 over p2 in [0, 1], a range that misses the band
    [-1e-12, 1 + 1e-12] by miss; so does each vertex at a coordinate of 1.
    By 1e-13, far inside the margin (4e-9 here), the edge and those two
    vertices are kept and refined; by 1e-6 every face is dropped."""
    refined, refine = [], oracle._refine_faces

    def spy(probs, prob, span, *args):
        refined.append((len(span), len(prob)))   # (free coordinates, faces)
        return refine(probs, prob, span, *args)

    monkeypatch.setattr(oracle, "_refine_faces", spy)
    _assert_faces_match(lambda X: X @ np.array([1.0, 2.0]), np.ones(2),
                        [(np.ones(2), 2.0 + 1e-12 + miss)])
    assert refined == ([(0, 2), (1, 1)] if kept else [])


def _own_rows(objective, upper, seen):
    """The objective, asserting that it only receives C-contiguous (N, K)
    arrays of points in its own problem's box, and counting them in
    seen as [rows, column sums]."""
    upper = np.asarray(upper, dtype=float)

    def checked(X):
        assert X.ndim == 2 and X.shape[1] == len(upper) and X.flags.c_contiguous
        assert (X >= 0.0).all() and (X <= upper * (1.0 + 1e-12)).all()
        seen[0] += len(X)
        seen[1] = seen[1] + X.sum(axis=0)
        return objective(X)
    return checked


def _assert_batch_matches(problems, **kwargs):
    """Each problem of one grid_state_oracles call gets exactly its
    one-problem result, from as many rows as that call evaluates."""
    problems = list(problems)
    seen = [[0, 0.0] for _ in problems]
    batch = grid_state_oracles([(_own_rows(obj, up, s), up, hs)
                                for (obj, up, hs), s in zip(problems, seen)], **kwargs)
    assert len(batch) == len(problems)
    for (obj, up, hs), s, (p, v) in zip(problems, seen, batch):
        alone = [0, 0.0]
        p_1, v_1 = grid_state_oracle(_own_rows(obj, up, alone), up, hs, **kwargs)
        assert v == v_1
        np.testing.assert_array_equal(p, p_1)
        assert s[0] == alone[0]
        np.testing.assert_allclose(s[1], alone[1], rtol=1e-9)


def test_grid_oracle_batch_matches_one_problem_calls():
    """Random, degenerate and face-bound quadratic problems in one batch."""
    _assert_batch_matches([*_random_problems(),
                           *(p.values for p in _degenerate_problems()),
                           *_quadratic_problems()])


def test_grid_oracle_batch_keeps_to_the_row_bound(monkeypatch):
    """With 3 points per axis a round holds at most 27 grid rows, so the
    boxes and faces of this batch refine in many chunks, and a 3-user box
    with a dead user (a zero upper bound) shares its rounds with another."""
    rows, boxes = [], []
    mesh, refine_boxes = oracle._mesh, oracle._refine_boxes

    def mesh_spy(*args):
        grid = mesh(*args)
        rows.append(grid[0].shape[0] * grid[0].shape[1])   # (F, points, d)
        return grid

    def boxes_spy(probs, *args):
        boxes.append([up for _, up, _, _ in probs])
        return refine_boxes(probs, *args)

    monkeypatch.setattr(oracle, "_mesh", mesh_spy)
    monkeypatch.setattr(oracle, "_refine_boxes", boxes_spy)
    _assert_batch_matches(_random_problems(30), points_per_dim=3)
    assert max(rows) <= 27 and len(rows) > 40
    assert any(len(ups) > 1 and len(ups[0]) == 3 and (ups[0] == 0.0).any() for ups in boxes)


@pytest.mark.parametrize("kwargs", [
    {"points_per_dim": 1}, {"points_per_dim": 0}, {"grid_step": 0.0},
    {"grid_step": -1e-3}, {"grid_step": np.nan}, {"grid_step": np.inf},
    {"max_rounds": 0}, {"points_per_dim": 10**6}, {"points_per_dim": 1e300},
    {"points_per_dim": np.int64(10**7)}, {"points_per_dim": np.inf},
    {"points_per_dim": int(round(MAX_MESH_POINTS ** (1 / 3))) + 1}],
    ids=lambda kw: ", ".join(f"{k}={v}" for k, v in kw.items()))
def test_grid_oracle_guards(kwargs):
    """Refused before the objective is called or any grid is built."""
    def never(X):
        raise AssertionError("objective called")
    with pytest.raises(UsageError):
        grid_state_oracle(never, np.ones(3), [(np.ones(3), 1.0)], **kwargs)
    with pytest.raises(UsageError):
        grid_state_oracles([(never, np.ones(k), [(np.ones(k), 1.0)]) for k in (1, 2, 3)],
                           **kwargs)


@pytest.mark.parametrize("upper", [np.ones(4), np.ones(0), np.array([1.0, -0.5])],
                         ids=["K = 4", "K = 0", "negative upper"])
def test_grid_oracle_batch_guards(upper):
    """One invalid problem, last in the batch, is refused before any
    objective of the batch is called."""
    def never(X):
        raise AssertionError("objective called")
    with pytest.raises(UsageError):
        grid_state_oracles([(never, np.ones(2), [(np.ones(2), 1.0)]),
                            (never, np.ones(1), []), (never, upper, [])])


@pytest.mark.parametrize("max_rounds", [1, 3])
def test_grid_oracle_face_refinement_honours_max_rounds(monkeypatch, max_rounds):
    """K = 2, one halfspace, a grid_step never reached: max_rounds meshes
    of the 2-axis box and as many of the one face with a free coordinate
    (one axis); the vertex faces (no axis) stop after their one round."""
    widths, mesh = [], oracle._mesh

    def mesh_spy(lo, *args):
        widths.append(lo.shape[1])   # the axes of a round's boxes or faces
        return mesh(lo, *args)

    monkeypatch.setattr(oracle, "_mesh", mesh_spy)
    grid_state_oracle(lambda X: np.log1p(X @ np.array([1.0, 2.0])), np.ones(2),
                      [(np.array([1.0, 1.0]), 1.5)], grid_step=1e-12, max_rounds=max_rounds)
    assert widths.count(2) == max_rounds and widths.count(1) == max_rounds


def test_problem_builders_bound_the_feasible_set():
    s = ChannelStateMac(h=np.array([2.0, 1.0]), g=np.array([[1.0], [0.5]]))
    for builder, args in (
            (case1_problem, (s, np.array([0.5, 0.5]), np.array([0.2]))),
            (case2_problem, (s, np.array([0.5, 0.5]), np.array([1.0]))),
            (case3_problem, (s, np.array([0.2]), np.array([1.0, 1.0]))),
            (case4_problem, (s, np.array([1.0, 1.0]), np.array([1.0])))):
        obj, upper, halfspaces = builder(*args)
        assert (np.asarray(upper) > 0).all()
        vals = obj(np.zeros((1, 2)))
        assert np.isfinite(vals).all()


def test_saa_matches_two_state_water_filling():
    h = np.array([2.0, 0.5])
    states = [ChannelStateMac(h=np.array([h[t]]), g=np.zeros((1, 0)))
              for t in range(2)]
    budget = PowerBudget(tpc=np.array([1.0]), ipc=np.zeros(0))
    P, val = saa_primal_oracle(states, ConstraintCase.I, budget)

    lo, hi = 1e-9, 1e9
    for _ in range(200):
        nu = 0.5 * (lo + hi)
        p = np.maximum(1.0 / nu - 1.0 / h, 0.0)
        if p.mean() > 1.0:
            lo = nu
        else:
            hi = nu
    p_wf = np.maximum(1.0 / hi - 1.0 / h, 0.0)
    v_wf = float(np.mean(np.log1p(h * p_wf)))
    assert abs(val - v_wf) < 1e-7
    np.testing.assert_allclose(P.ravel(), p_wf, atol=1e-5)


def test_saa_zero_budget_limit():
    states = sample_mac_states(FadingModel(K=2, M=1, n_states=6, seed=3))
    budget = PowerBudget.symmetric(2, 1, 1e-9, 1e-9)
    _, val = saa_primal_oracle(states, ConstraintCase.I, budget)
    assert 0.0 <= val < 1e-6


def _assert_saa_feasible(states, case, budget, P, rel=1e-12):
    """P is nonnegative and meets every TPC and IPC of `case` to `rel`."""
    G = np.stack([s.g for s in states])
    lin = np.einsum("nk,nkm->nm", P, G)
    assert (P >= 0).all()
    tpc = P.mean(axis=0) if case.tpc_is_lt else P
    ipc = lin.mean(axis=0) if case.ipc_is_lt else lin
    assert (tpc <= budget.tpc * (1.0 + rel)).all()
    assert (ipc <= budget.ipc * (1.0 + rel)).all()


def test_saa_feasibility_certified():
    states = sample_mac_states(FadingModel(K=2, M=1, n_states=12, seed=4))
    budget = PowerBudget.symmetric(2, 1, 0.7, 0.5)
    for case in ConstraintCase:
        P, val = saa_primal_oracle(states, case, budget)
        _assert_saa_feasible(states, case, budget, P)
        assert val >= 0.0


@pytest.mark.parametrize("h,g,p,gamma", [(2.0, 0.5, 1.0, 0.8), (0.7, 3.0, 1.5, 0.9),
                                         (5.0, 1.0, 0.3, 0.3), (1e-3, 2.0, 4.0, 1e3)])
def test_saa_case4_one_state_one_user_is_the_tighter_cap(h, g, p, gamma):
    """Case IV at one state and one user: the rate grows with power, so the
    optimum is log1p(h * min(P, gamma / g)), whichever cap binds."""
    states = [ChannelStateMac(h=np.array([h]), g=np.array([[g]]))]
    budget = PowerBudget(tpc=np.array([p]), ipc=np.array([gamma]))
    P, val = saa_primal_oracle(states, ConstraintCase.IV, budget)
    assert abs(val - np.log1p(h * min(p, gamma / g))) <= 1e-9
    _assert_saa_feasible(states, ConstraintCase.IV, budget, P)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_saa_case3_lt_ipc_matches_bisection_on_its_price(seed):
    """Case III, one user: per-state cap P and mean(g p) <= gamma. By the KKT
    conditions p_t = clip(1/(mu g_t) - 1/h_t, 0, P), with mu found by bisection
    on the averaged interference."""
    rng = np.random.default_rng(seed)
    n, p_max, gamma = 16, 1.0, 0.3
    h, g = rng.exponential(size=n), rng.exponential(size=n)
    states = [ChannelStateMac(h=h[t:t + 1], g=g[t:t + 1, None]) for t in range(n)]
    budget = PowerBudget(tpc=np.array([p_max]), ipc=np.array([gamma]))
    P, val = saa_primal_oracle(states, ConstraintCase.III, budget)

    def powers(mu):
        return np.clip(1.0 / (mu * g) - 1.0 / h, 0.0, p_max)

    lo, hi = 1e-9, 1e9
    for _ in range(200):   # geometric bisection: hi stays on the feasible side
        mu = np.sqrt(lo * hi)
        lo, hi = (mu, hi) if np.mean(g * powers(mu)) > gamma else (lo, mu)
    p = powers(hi)
    assert (p == 0.0).any() and (p == p_max).any() and abs(np.mean(g * p) - gamma) < 1e-12
    assert abs(val - float(np.mean(np.log1p(h * p)))) <= 1e-9
    _assert_saa_feasible(states, ConstraintCase.III, budget, P)


@pytest.mark.parametrize("gap_tol,seeds,cases", [
    (1e-7, (30, 31, 32, 33, 34), "I II III"),   # gate criterion 5's instances
    (1e-10, (5, 7, 8, 9, 16, 30, 31, 32), "I II III IV"),
], ids=["gate-c5", "sizing"])
def test_saa_oracle_meets_the_dual_loop_from_below(gap_tol, seeds, cases):
    """The oracle's value lower-bounds the SAA optimum and the dual loop's
    best value upper-bounds it: at the loop's gap_tol the two meet within
    2 * gap_tol, so the oracle is exact to about 1e-10."""
    budget = PowerBudget.symmetric(2, 1, 0.9, 0.7)
    for seed in seeds:
        states = sample_mac_states(FadingModel(K=2, M=1, n_states=8, seed=seed))
        for case in map(ConstraintCase, cases.split()):
            _, report, _, _ = cutting_plane_solve(states, case, budget, gap_tol=gap_tol)
            P, val = saa_primal_oracle(states, case, budget)
            assert 0.0 <= report.best_dual - val <= 2.0 * gap_tol * report.best_dual
            _assert_saa_feasible(states, case, budget, P)


def test_saa_max_iter_caps_newton_steps_at_a_feasible_lower_bound():
    """At the cap the current iterate, strictly feasible, is returned: its
    value lies below the converged one, and it meets every constraint."""
    states = sample_mac_states(FadingModel(K=2, M=1, n_states=8, seed=31))
    budget = PowerBudget.symmetric(2, 1, 0.9, 0.7)
    for case in ConstraintCase:
        _, best = saa_primal_oracle(states, case, budget)
        for cap in (0, 1, 5, 20):
            P, val = saa_primal_oracle(states, case, budget, max_iter=cap)
            assert 0.0 < val < best and (P > 0.0).all()
            _assert_saa_feasible(states, case, budget, P)


def test_saa_rejects_large_instances():
    states = sample_mac_states(FadingModel(K=4, M=1, n_states=200, seed=5))
    budget = PowerBudget.symmetric(4, 1, 1.0, 1.0)
    with pytest.raises(UsageError):
        saa_primal_oracle(states, ConstraintCase.I, budget)
