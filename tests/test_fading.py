"""Fading model: reproducibility, distribution sanity, CSV round-trips."""

import tracemalloc

import numpy as np
import pytest

from crsum import (ChannelStateBc, ChannelStateMac, ConfigurationError,
                   ConstraintCase, Ensemble, FadingModel, PowerBudget,
                   UsageError, as_ensemble, bc_arrays, ergodic_capacity_bc,
                   ergodic_capacity_mac, export_bc_csv, export_mac_csv,
                   import_bc_csv, import_mac_csv, mac_arrays,
                   sample_bc_states, sample_mac_states)
from crsum.fading import _carve, _draw, check_ensemble_size


def test_same_seed_same_states():
    a = sample_mac_states(FadingModel(K=3, M=2, n_states=40, seed=9))
    b = sample_mac_states(FadingModel(K=3, M=2, n_states=40, seed=9))
    Ha, Ga = mac_arrays(a)
    Hb, Gb = mac_arrays(b)
    assert np.array_equal(Ha, Hb)
    assert np.array_equal(Ga, Gb)


def test_different_seed_different_states():
    a = sample_mac_states(FadingModel(K=2, M=1, n_states=10, seed=1))
    b = sample_mac_states(FadingModel(K=2, M=1, n_states=10, seed=2))
    Ha, _ = mac_arrays(a)
    Hb, _ = mac_arrays(b)
    assert not np.array_equal(Ha, Hb)


def test_unit_mean_exponential_gains():
    """Sample means of every gain sit near 1 at n=10000."""
    for seed in (3, 17):
        model = FadingModel(K=2, M=1, n_states=10_000, seed=seed)
        H, G = mac_arrays(sample_mac_states(model))
        for col in range(2):
            assert 0.97 <= H[:, col].mean() <= 1.03
        assert 0.97 <= G[:, :, 0].mean() <= 1.03


def test_gains_are_positive():
    H, G = mac_arrays(sample_mac_states(FadingModel(K=4, M=3, n_states=200, seed=5)))
    assert (H > 0).all() and (G > 0).all()


def test_bc_shapes():
    states = sample_bc_states(FadingModel(K=5, M=2, n_states=7, seed=6))
    assert len(states) == 7
    H, F = bc_arrays(states)
    assert H.shape == (7, 5) and F.shape == (7, 2)
    assert states[0].K == 5 and states[0].M == 2


def test_model_validation():
    with pytest.raises(ConfigurationError):
        FadingModel(K=0, M=1, n_states=10, seed=1)
    with pytest.raises(ConfigurationError):
        FadingModel(K=1, M=-1, n_states=10, seed=1)
    with pytest.raises(ConfigurationError):
        FadingModel(K=1, M=1, n_states=0, seed=1)
    with pytest.raises(ConfigurationError):
        FadingModel(K=1, M=1, n_states=4, seed=1, kind="lognormal")


def test_states_are_read_only():
    s = sample_mac_states(FadingModel(K=2, M=1, n_states=1, seed=8))[0]
    with pytest.raises(ValueError):
        s.h[0] = 5.0
    with pytest.raises(ValueError):
        s.g[0, 0] = 5.0


def test_mac_csv_round_trip(tmp_path):
    states = sample_mac_states(FadingModel(K=3, M=2, n_states=25, seed=12))
    path = tmp_path / "ensemble.csv"
    export_mac_csv(states, path)
    back = import_mac_csv(path)
    H0, G0 = mac_arrays(states)
    H1, G1 = mac_arrays(back)
    assert np.array_equal(H0, H1)
    assert np.array_equal(G0, G1)


def test_bc_csv_round_trip(tmp_path):
    states = sample_bc_states(FadingModel(K=2, M=3, n_states=11, seed=13))
    path = tmp_path / "bc.csv"
    export_bc_csv(states, path)
    back = import_bc_csv(path)
    H0, F0 = bc_arrays(states)
    H1, F1 = bc_arrays(back)
    assert np.array_equal(H0, H1)
    assert np.array_equal(F0, F1)


def test_import_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("h_1,g_1_1\n1.0,2.0\n")
    export_ok = tmp_path / "ok.csv"
    export_mac_csv(
        [ChannelStateMac(h=np.array([1.0]), g=np.array([[2.0]]))], export_ok)
    # mangle the header
    lines = export_ok.read_text().splitlines()
    lines[0] = lines[0].replace("h_1", "hh_1")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(UsageError):
        import_mac_csv(path)


def test_state_dimension_validation():
    with pytest.raises(ConfigurationError):
        ChannelStateMac(h=np.array([1.0, 2.0]), g=np.array([[1.0]]))
    with pytest.raises(ConfigurationError):
        ChannelStateBc(h=np.array([-1.0]), f=np.array([1.0]))


def _philox_draw(seed, first, second):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.exponential(1.0, size=first), rng.exponential(1.0, size=second)


def test_ensemble_is_the_documented_philox_draw():
    """Direct gains first, then the interference gains, bit for bit."""
    mac = sample_mac_states(FadingModel(K=3, M=2, n_states=30, seed=21))
    H, G = _philox_draw(21, (30, 3), (30, 3, 2))
    assert mac.channel == "mac" and len(mac) == 30
    assert np.array_equal(mac.H, H) and np.array_equal(mac.G, G)
    bc = sample_bc_states(FadingModel(K=4, M=3, n_states=30, seed=22))
    H, F = _philox_draw(22, (30, 4), (30, 3))
    assert np.array_equal(bc.H, H) and np.array_equal(bc.F, F)
    assert mac_arrays(mac)[1] is mac.G and bc_arrays(bc)[0] is bc.H


@pytest.mark.parametrize("channel", ["mac", "bc"])
def test_a_carved_ensemble_is_the_two_call_draw(channel):
    """The ensemble of (channel, K, M, n), cut from its own draw or from
    a longer stream of the same seed, equals H = exponential((n, K))
    followed by exponential((n, K, M)) or ((n, M)), bit for bit."""
    longest = check_ensemble_size(channel, 5, 4, 1000)
    for seed in (0, 3, 41):
        stream = _draw(longest, seed)
        for K in range(1, 6):
            for M in range(5):
                for n in (1, 2, 7, 1000):
                    H, X = _philox_draw(seed, (n, K), (n, K, M) if channel == "mac" else (n, M))
                    own = _draw(check_ensemble_size(channel, K, M, n), seed)
                    for ens in (_carve(channel, K, M, n, own), _carve(channel, K, M, n, stream)):
                        assert ens.channel == channel
                        assert ens.H.shape == H.shape and ens.X.shape == X.shape
                        assert np.array_equal(ens.H, H) and np.array_equal(ens.X, X)


def test_the_stream_and_its_carved_ensembles_are_read_only():
    stream = _draw(check_ensemble_size("mac", 4, 2, 50), 5)
    ensembles = [_carve("mac", 4, 2, 50, stream), _carve("mac", 2, 1, 50, stream),
                 _carve("bc", 4, 2, 50, stream), _carve("bc", 3, 0, 50, stream)]
    arrays = [stream, *(a for ens in ensembles for a in (ens.H, ens.X))]
    assert not any(arr.flags.writeable for arr in arrays)
    for arr in arrays:
        if arr.size:
            assert np.shares_memory(arr, stream)
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 5.0


def test_sampling_allocates_only_the_arrays():
    n, K, M = 200_000, 2, 1
    raw = 8 * n * K * (1 + M)
    tracemalloc.start()
    try:
        ens = sample_mac_states(FadingModel(K=K, M=M, n_states=n, seed=23))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ens.H.nbytes + ens.G.nbytes == raw
    assert peak <= 1.5 * raw


def test_ensemble_and_views_are_read_only():
    ens = sample_mac_states(FadingModel(K=2, M=1, n_states=5, seed=24))
    for arr in (ens.H, ens.G, ens[2].h, ens[2].g):
        with pytest.raises(ValueError):
            arr[0] = 5.0
    bc = sample_bc_states(FadingModel(K=2, M=1, n_states=5, seed=25))
    for arr in (bc.H, bc.F, bc[-1].h, bc[-1].f):
        with pytest.raises(ValueError):
            arr[0] = 5.0
    assert np.shares_memory(ens[2].g, ens.G)
    with pytest.raises(AttributeError):
        bc.G


def test_list_of_states_gives_the_same_results():
    mac = sample_mac_states(FadingModel(K=2, M=1, n_states=200, seed=26))
    budget = PowerBudget.symmetric(K=2, M=1, p=1.0, gamma=0.5)
    a = ergodic_capacity_mac(mac, ConstraintCase.II, budget)
    b = ergodic_capacity_mac(list(mac), ConstraintCase.II, budget)
    assert a.ergodic_sum_rate == b.ergodic_sum_rate
    assert np.array_equal(a.alloc, b.alloc)
    bc = sample_bc_states(FadingModel(K=3, M=2, n_states=200, seed=27))
    budget = PowerBudget.symmetric(K=3, M=2, p=1.0, gamma=0.5, q=1.0)
    a = ergodic_capacity_bc(bc, ConstraintCase.I, budget)
    b = ergodic_capacity_bc(list(bc), ConstraintCase.I, budget)
    assert a.ergodic_sum_rate == b.ergodic_sum_rate
    assert np.array_equal(a.alloc, b.alloc)


def test_as_ensemble_rejects_bad_inputs():
    mac = sample_mac_states(FadingModel(K=2, M=1, n_states=3, seed=28))
    bc = sample_bc_states(FadingModel(K=2, M=1, n_states=3, seed=28))
    for bad in ([], [mac[0], bc[0]], [1.0]):
        with pytest.raises(UsageError):
            as_ensemble(bad)
    with pytest.raises(UsageError):
        mac_arrays(bc)
    with pytest.raises(UsageError):
        ergodic_capacity_bc(mac, ConstraintCase.I,
                            PowerBudget.symmetric(2, 1, 1.0, 1.0, q=1.0))
    with pytest.raises(ConfigurationError):
        Ensemble("mac", np.ones((3, 2)), np.ones((3, 1)))
    with pytest.raises(ConfigurationError):
        Ensemble("bc", np.ones((3, 2)), np.full((3, 1), np.nan))


@pytest.mark.parametrize("channel,X", [("mac", np.zeros((3, 0, 1))),
                                       ("bc", np.zeros((3, 1)))])
def test_ensemble_rejects_zero_users(channel, X):
    """K = 0 fails at construction, as FadingModel does, not later inside
    a solver with an IndexError or an argmax of an empty row."""
    with pytest.raises(ConfigurationError, match="at least one secondary user"):
        Ensemble(channel, np.zeros((3, 0)), X)


def test_export_text_is_repr_per_state(tmp_path):
    """The CSV holds repr() of every gain, state by state, h before g."""
    ens = sample_mac_states(FadingModel(K=2, M=2, n_states=4, seed=29))
    path = tmp_path / "mac.csv"
    export_mac_csv(ens, path)
    lines = ["h_1,h_2,g_1_1,g_1_2,g_2_1,g_2_2"] + [
        ",".join(repr(float(x)) for x in np.concatenate([s.h, s.g.ravel()]))
        for s in ens]
    assert path.read_bytes() == ("\r\n".join(lines) + "\r\n").encode()


@pytest.mark.parametrize("body, error", [
    ("", UsageError),                          # header only
    ("1.0,2.0\n", UsageError),                 # too few fields
    ("1.0,-2.0,3.0\n", ConfigurationError),    # negative gain
    ("1.0,inf,3.0\n", ConfigurationError),     # infinite gain
])
def test_import_validates_the_rows(tmp_path, body, error):
    path = tmp_path / "bc.csv"
    path.write_text("h_1,h_2,f_1\n" + body)
    with pytest.raises(error):
        import_bc_csv(path)


@pytest.mark.parametrize("header, importer", [
    ("h_1,f_1", import_bc_csv),
    ("h_1,g_1_1", import_mac_csv),
])
def test_import_rejects_non_numeric_fields(tmp_path, header, importer):
    path = tmp_path / "states.csv"
    path.write_text(f"{header}\n1.0,abc\n")
    with pytest.raises(UsageError, match="states.csv"):
        importer(path)
