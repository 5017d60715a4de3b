r"""Monte Carlo fading ensembles for the secondary MAC and BC.

All ergodic quantities in this package are sample-average
approximations over a finite ensemble of channel states, so the
ensemble is drawn once, up front, as the two read-only arrays of an
`Ensemble` that every layer reads in place. Gains are linear-scale
power gains; the receiver noise is normalized to unit variance
throughout, so `rayleigh-unit-mean` fading makes every gain an i.i.d.
Exponential(1) variate. The ensemble of (channel, K, M, n) at a seed
is a prefix of the seed's Exp(1) stream: H's n·K values, row by row,
then G's n·K·M or F's n·M. A run's ensembles share n and the seed, so
they are read-only views into one draw, the largest one's.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError

_KINDS = ("rayleigh-unit-mean",)
MAX_ENSEMBLE_BYTES = 1 << 30    # the largest ensemble a sampler draws: 1 GiB of gains


def check_ensemble_size(channel: str, K: int, M: int, n: int) -> int:
    """Refuse, before anything is allocated, an ensemble whose float64
    gains, H (n, K) and G (n, K, M) or F (n, M), exceed MAX_ENSEMBLE_BYTES.
    Returns the number of its gains."""
    count = n * (K + (K * M if channel == "mac" else M))
    if 8 * count > MAX_ENSEMBLE_BYTES:
        raise UsageError(f"a {channel.upper()} ensemble of {n} states with K = {K}, M = {M} takes "
                         f"{8 * count:,} bytes of gains, above the {MAX_ENSEMBLE_BYTES:,}-byte limit")
    return count


@dataclass(frozen=True)
class FadingModel:
    """Specification of one i.i.d. fading ensemble.

    K secondary users, M primary receivers, `n_states` joint fading
    states, and a counter-based seed so the draw is reproducible and
    independent of evaluation order.
    """

    K: int
    M: int
    n_states: int
    seed: int
    kind: str = "rayleigh-unit-mean"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown fading kind {self.kind!r}")
        if self.K < 1:
            raise ConfigurationError("need at least one secondary user")
        if self.M < 0:
            raise ConfigurationError("M must be nonnegative")
        if self.n_states < 1:
            raise ConfigurationError("n_states must be positive")


def _gains(a) -> np.ndarray:
    """A read-only float view of `a`, checked finite and nonnegative."""
    a = np.asarray(a, dtype=float).view()
    lo, hi = a.min(initial=0.0), a.max(initial=0.0)  # no array-sized temporary
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigurationError("gains must be finite")
    if lo < 0:
        raise ConfigurationError("power gains are nonnegative")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ChannelStateMac:
    """One fading state of the secondary MAC.

    h[k] is the direct power gain from secondary transmitter k to the
    secondary base station; g[k, m] is the interference power gain from
    transmitter k to primary receiver m.
    """

    h: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        h, g = _gains(self.h), _gains(self.g)
        if h.ndim != 1 or g.ndim != 2 or g.shape[0] != h.shape[0]:
            raise ConfigurationError("h must be (K,), g must be (K, M)")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)

    @property
    def K(self) -> int:
        return self.h.shape[0]

    @property
    def M(self) -> int:
        return self.g.shape[1]


@dataclass(frozen=True)
class ChannelStateBc:
    """One fading state of the secondary BC.

    h[k] is the power gain from the secondary base station to user k;
    f[m] is the interference power gain from the base station to
    primary receiver m.
    """

    h: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        h, f = _gains(self.h), _gains(self.f)
        if h.ndim != 1 or f.ndim != 1:
            raise ConfigurationError("h must be (K,), f must be (M,)")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "f", f)

    @property
    def K(self) -> int:
        return self.h.shape[0]

    @property
    def M(self) -> int:
        return self.f.shape[0]


@dataclass(frozen=True, eq=False)
class Ensemble:
    """n joint fading states of one channel, as two read-only arrays.

    channel "mac": H (n, K) direct gains and X = G (n, K, M)
    interference gains. channel "bc": H (n, K) gains to the users and
    X = F (n, M) interference gains of the base station. Row t is
    state t. `len`, integer indexing and iteration give the states as
    ChannelStateMac / ChannelStateBc views; none is stored.
    """

    channel: str
    H: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        if self.channel not in ("mac", "bc"):
            raise ConfigurationError(f"unknown channel {self.channel!r}")
        H, X = _gains(self.H), _gains(self.X)
        lead = 2 if self.channel == "mac" else 1
        if H.ndim != 2 or X.ndim != lead + 1 or X.shape[:lead] != H.shape[:lead]:
            raise ConfigurationError("H must be (n, K), G (n, K, M), F (n, M)")
        if H.shape[1] == 0:
            raise ConfigurationError("need at least one secondary user")
        if H.shape[0] == 0:
            raise UsageError("empty ensemble")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "X", X)

    @property
    def G(self) -> np.ndarray:
        if self.channel != "mac":
            raise AttributeError("a BC ensemble has F, not G")
        return self.X

    @property
    def F(self) -> np.ndarray:
        if self.channel != "bc":
            raise AttributeError("a MAC ensemble has G, not F")
        return self.X

    def __len__(self) -> int:
        return self.H.shape[0]

    def __getitem__(self, t: int):
        if self.channel == "mac":
            return ChannelStateMac(h=self.H[t], g=self.X[t])
        return ChannelStateBc(h=self.H[t], f=self.X[t])

    def __iter__(self):
        return (self[t] for t in range(len(self)))


def as_ensemble(states, channel: str | None = None) -> Ensemble:
    """`states` as an Ensemble, optionally required to be of `channel`.

    The only place where a list of per-state objects is stacked."""
    if not isinstance(states, Ensemble):
        states = list(states)
        if states and all(isinstance(s, ChannelStateMac) for s in states):
            states = Ensemble("mac", np.stack([s.h for s in states]),
                              np.stack([s.g for s in states]))
        elif states and all(isinstance(s, ChannelStateBc) for s in states):
            states = Ensemble("bc", np.stack([s.h for s in states]),
                              np.stack([s.f for s in states]))
        else:
            raise UsageError("need a nonempty list of MAC or BC channel states")
    if channel is not None and states.channel != channel:
        raise UsageError(f"expected a {channel.upper()} ensemble, "
                         f"got a {states.channel.upper()} one")
    return states


def _rng(seed: int) -> np.random.Generator:
    # Philox is counter-based: the stream depends only on the key, not on how
    # draws are chunked, so a draw of N values holds every shorter draw.
    return np.random.Generator(np.random.Philox(key=seed))


def _draw(n_gains: int, seed: int) -> np.ndarray:
    """The first n_gains Exp(1) values of the seed's stream, read-only."""
    gains = _rng(seed).exponential(1.0, size=n_gains)
    gains.flags.writeable = False
    return gains


def _carve(channel: str, K: int, M: int, n: int, gains: np.ndarray) -> Ensemble:
    """The ensemble of (channel, K, M, n) as views into `gains`, a draw of at
    least its size: H (n, K) first, then G (n, K, M) or F (n, M)."""
    shape = (n, K, M) if channel == "mac" else (n, M)
    X = gains[n * K:n * K + int(np.prod(shape))].reshape(shape)
    return Ensemble(channel, gains[:n * K].reshape(n, K), X)


def _sample(channel: str, model: FadingModel) -> Ensemble:
    shape = (channel, model.K, model.M, model.n_states)
    return _carve(*shape, _draw(check_ensemble_size(*shape), model.seed))


def sample_mac_states(model: FadingModel) -> Ensemble:
    """Draw the MAC ensemble for `model`. Same model => same states."""
    return _sample("mac", model)


def sample_bc_states(model: FadingModel) -> Ensemble:
    """Draw the BC ensemble for `model`. Same model => same states."""
    return _sample("bc", model)


def mac_arrays(states) -> tuple[np.ndarray, np.ndarray]:
    """(H, G) of shapes (n, K) and (n, K, M): an Ensemble's own arrays."""
    ens = as_ensemble(states, "mac")
    return ens.H, ens.G


def bc_arrays(states) -> tuple[np.ndarray, np.ndarray]:
    """(H, F) of shapes (n, K) and (n, M): an Ensemble's own arrays."""
    ens = as_ensemble(states, "bc")
    return ens.H, ens.F


def _header(channel: str, K: int, M: int) -> list[str]:
    cols = [f"h_{k}" for k in range(1, K + 1)]
    if channel == "mac":
        cols += [f"g_{k}_{m}" for k in range(1, K + 1) for m in range(1, M + 1)]
    else:
        cols += [f"f_{m}" for m in range(1, M + 1)]
    return cols


def _export_csv(ens: Ensemble, path) -> None:
    n, K = ens.H.shape
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_header(ens.channel, K, ens.X.shape[-1]))
        rows = np.concatenate([ens.H, ens.X.reshape(n, -1)], axis=1)
        w.writerows([repr(x) for x in row] for row in rows.tolist())


def _import_csv(path, channel: str) -> Ensemble:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise UsageError(f"{path}: empty ensemble file")
    header, body = rows[0], rows[1:]
    K = sum(1 for c in header if c.startswith("h_"))
    per_m = K if channel == "mac" else 1     # columns per primary receiver
    M = (len(header) - K) // per_m if K else 0
    if K < 1 or header != _header(channel, K, M):
        raise UsageError(f"{path}: malformed {channel.upper()} ensemble header")
    width = K + per_m * M
    for row in body:
        if len(row) != width:
            raise UsageError(f"{path}: row with {len(row)} fields, expected {width}")
    if not body:
        raise UsageError(f"{path}: no states in file")
    try:
        vals = np.array([[float(x) for x in row] for row in body])
    except ValueError as exc:
        raise UsageError(f"{path}: non-numeric field ({exc})") from None
    X = vals[:, K:].reshape(len(body), K, M) if channel == "mac" else vals[:, K:]
    return Ensemble(channel, vals[:, :K], X)


def export_mac_csv(states, path) -> None:
    """Write a MAC ensemble as CSV (header row is mandatory)."""
    _export_csv(as_ensemble(states, "mac"), path)


def import_mac_csv(path) -> Ensemble:
    """Read a MAC ensemble written by `export_mac_csv`."""
    return _import_csv(path, "mac")


def export_bc_csv(states, path) -> None:
    """Write a BC ensemble as CSV (header row is mandatory)."""
    _export_csv(as_ensemble(states, "bc"), path)


def import_bc_csv(path) -> Ensemble:
    """Read a BC ensemble written by `export_bc_csv`."""
    return _import_csv(path, "bc")
