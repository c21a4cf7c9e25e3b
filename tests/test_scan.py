"""The one moment scanner against the three window-widening loops it replaced.

The loops below are the former `discrete_absolute_moment_estimate`,
`algebraic_moment` and `algebraic_moment_profile`, kept verbatim as oracles
with their default policy inlined (u-grid of 4096 points, windows doubling
from half-width 8 to 2048, settling at 1e-12, divergence on growth by 1.5x
over three doublings).
"""

import math

import numpy as np
import pytest

import expsampling as es
from expsampling import DivergentMomentError, MomentEstimate

_CHUNK = 256
U_POINTS = 4096
INITIAL_HALF_WIDTH = 8
MAX_HALF_WIDTH = 2048
CONVERGENCE_TOL = 1e-12
DIVERGENCE_FACTOR = 1.5
DIVERGENCE_STREAK = 3

KERNELS = sorted(es.KERNELS)
ORDERS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 6.0)
US = (0.3, 0.9, 1.0, 1.7, 5.0)


def _frac_grid(n):
    return np.arange(n, dtype=float) / n


def _tail_probe(kernel, nu, start, span=16.0, points=4096):
    ts = np.linspace(start, start + span, points)
    vals = np.abs(kernel.log_profile(ts)) * ts**nu
    vals_neg = np.abs(kernel.log_profile(-ts)) * ts**nu
    return float(max(vals.max(), vals_neg.max()))


def _block_max(kernel, nu, vs, ks):
    """Max of |chi(e^{v-k})| |k - v|^nu over ks x vs, with the arg-maximising pair."""
    best = -np.inf
    best_v = vs[0]
    best_k = int(ks[0]) if len(ks) else 0
    for lo in range(0, len(ks), _CHUNK):
        kb = ks[lo : lo + _CHUNK]
        t = vs[None, :] - kb[:, None]
        vals = np.abs(kernel.log_profile(t)) * np.abs(t) ** nu
        i = int(np.argmax(vals))
        m = float(vals.flat[i])
        if m > best:
            best = m
            r, cidx = divmod(i, vals.shape[1])
            best_v = float(vs[cidx])
            best_k = int(kb[r])
    return best, best_v, best_k


def old_absolute_moment(kernel, nu):
    vs = _frac_grid(U_POINTS)
    if kernel.log_support_radius is not None:
        w = int(math.ceil(kernel.log_support_radius)) + 1
        ks = np.arange(-w, w + 1)
        value, v_star, k_star = _block_max(kernel, nu, vs, ks)
        return MomentEstimate(nu, value, math.exp(v_star), k_star, w, 0.0)

    w = INITIAL_HALF_WIDTH
    ks = np.arange(-w, w + 1)
    value, v_star, k_star = _block_max(kernel, nu, vs, ks)
    streak = 0
    while w < MAX_HALF_WIDTH:
        new_w = 2 * w
        ring = np.concatenate([np.arange(-new_w, -w), np.arange(w + 1, new_w + 1)])
        ring_max, rv, rk = _block_max(kernel, nu, vs, ring)
        new_value = max(value, ring_max)
        if ring_max > value:
            v_star, k_star = rv, rk
        growth = new_value / value if value > 0.0 else 1.0
        streak = streak + 1 if growth >= DIVERGENCE_FACTOR else 0
        if streak >= DIVERGENCE_STREAK:
            raise DivergentMomentError(
                "absolute moment grows without bound",
                witness_u=math.exp(v_star),
                witness_k=k_star,
                order=nu,
            )
        settled = abs(new_value - value) < CONVERGENCE_TOL * max(1.0, new_value)
        value, w = new_value, new_w
        if settled:
            return MomentEstimate(nu, value, math.exp(v_star), k_star, w, _tail_probe(kernel, nu, float(w)))
    tail = _tail_probe(kernel, nu, float(w))
    return MomentEstimate(nu, value, math.exp(v_star), k_star, w, tail, converged=False)


def _algebraic_join(kernel, j, vs, ks, absolute):
    """Join over ks of chi(e^{v-k}) (k - v)^j for each v (signed by default)."""
    out = np.full(vs.shape, -np.inf)
    for lo in range(0, len(ks), _CHUNK):
        kb = ks[lo : lo + _CHUNK]
        t = vs[None, :] - kb[:, None]
        chi = kernel.log_profile(t)
        poly = (-t) ** j  # (k - v)^j
        vals = np.abs(chi) * np.abs(poly) if absolute else chi * poly
        out = np.maximum(out, vals.max(axis=0))
    return out


def old_algebraic_moment(kernel, j, u, absolute):
    v = math.log(u)
    vs = np.array([v])
    if kernel.log_support_radius is not None:
        w = int(math.ceil(kernel.log_support_radius)) + 1
        ks = np.arange(math.floor(v) - w, math.floor(v) + w + 2)
        return float(_algebraic_join(kernel, j, vs, ks, absolute)[0])

    w = INITIAL_HALF_WIDTH
    ks = np.arange(math.floor(v) - w, math.floor(v) + w + 2)
    value = float(_algebraic_join(kernel, j, vs, ks, absolute)[0])
    streak = 0
    while w < MAX_HALF_WIDTH:
        new_w = 2 * w
        ring = np.concatenate(
            [
                np.arange(math.floor(v) - new_w, math.floor(v) - w),
                np.arange(math.floor(v) + w + 2, math.floor(v) + new_w + 2),
            ]
        )
        ring_val = float(_algebraic_join(kernel, j, vs, ring, absolute)[0])
        new_value = max(value, ring_val)
        scale = max(abs(value), 1e-300)
        growth = abs(new_value) / scale if abs(new_value) > scale else 1.0
        streak = streak + 1 if growth >= DIVERGENCE_FACTOR else 0
        if streak >= DIVERGENCE_STREAK:
            raise DivergentMomentError(
                "algebraic moment grows without bound",
                witness_u=u,
                witness_k=int(ring[0]),
                order=float(j),
            )
        settled = abs(new_value - value) < CONVERGENCE_TOL * max(1.0, abs(new_value))
        value, w = new_value, new_w
        if settled:
            break
    return value


def old_algebraic_profile(kernel, j, absolute):
    vs = _frac_grid(U_POINTS)
    if kernel.log_support_radius is not None:
        w = int(math.ceil(kernel.log_support_radius)) + 1
        return vs, _algebraic_join(kernel, j, vs, np.arange(-w, w + 2), absolute)
    w = INITIAL_HALF_WIDTH
    prev = None
    streak = 0
    while True:
        ks = np.arange(-w, w + 2)
        vals = _algebraic_join(kernel, j, vs, ks, absolute)
        peak = float(np.max(np.abs(vals)))
        if not np.all(np.isfinite(vals)):
            raise DivergentMomentError(
                "algebraic moment overflows under window widening",
                witness_u=math.exp(float(vs[int(np.argmax(np.abs(vals)))])),
                witness_k=-w,
                order=float(j),
            )
        if prev is not None:
            if np.max(np.abs(vals - prev)) < CONVERGENCE_TOL * max(1.0, peak):
                break
            prev_peak = float(np.max(np.abs(prev)))
            growth = peak / prev_peak if prev_peak > 0.0 else 1.0
            streak = streak + 1 if growth >= DIVERGENCE_FACTOR else 0
            if streak >= DIVERGENCE_STREAK:
                raise DivergentMomentError(
                    "algebraic moment grows without bound over the u-scan",
                    witness_u=math.exp(float(vs[int(np.argmax(np.abs(vals)))])),
                    witness_k=-w,
                    order=float(j),
                )
        if w >= MAX_HALF_WIDTH:
            break
        prev, w = vals, 2 * w
    return vs, vals


def _outcome(call):
    """The value a scan returns, or the DivergentMomentError it raises."""
    try:
        return call()
    except DivergentMomentError as exc:
        return exc


@pytest.mark.parametrize("name", KERNELS)
def test_absolute_moment_matches_old_scan(name):
    kernel = es.get_kernel(name)
    for nu in ORDERS:
        new = _outcome(lambda: es.discrete_absolute_moment_estimate(kernel, nu))
        old = _outcome(lambda: old_absolute_moment(kernel, nu))
        assert type(new) is type(old), (name, nu)
        if isinstance(old, DivergentMomentError):
            assert (new.witness_u, new.witness_k, new.order) == (old.witness_u, old.witness_k, old.order)
            continue
        assert (new.value, new.half_width, new.tail_bound, new.converged) == (
            old.value, old.half_width, old.tail_bound, old.converged
        ), (name, nu)


@pytest.mark.parametrize("name", KERNELS)
def test_algebraic_moment_matches_old_scan(name):
    kernel = es.get_kernel(name)
    for j in range(4):
        for u in US:
            new = _outcome(lambda: es.algebraic_moment(kernel, j, u))
            old = _outcome(lambda: old_algebraic_moment(kernel, j, u, False))
            assert type(new) is type(old), (name, j, u)
            if not isinstance(old, DivergentMomentError):
                assert new == old, (name, j, u)


@pytest.mark.parametrize("name", KERNELS)
def test_algebraic_profile_matches_old_scan(name):
    kernel = es.get_kernel(name)
    exact = not name.startswith("linc")
    for j in range(4):
        new = _outcome(lambda: es.algebraic_moment_profile(kernel, j))
        old = _outcome(lambda: old_algebraic_profile(kernel, j, False))
        assert type(new) is type(old), (name, j)
        if isinstance(old, DivergentMomentError):
            continue
        (vs, vals), (old_vs, old_vals) = new, old
        assert np.array_equal(vs, old_vs)
        if exact:
            assert np.array_equal(vals, old_vals), (name, j)
        else:
            assert np.max(np.abs(vals - old_vals)) <= 1e-16, (name, j)
            assert (vals.min(), vals.max()) == (old_vals.min(), old_vals.max())


def test_zero_joins_read_positive_zero():
    # every order-1 term of linc0 at u = 1 is a signed zero but the k = 0 one
    _, vals = es.algebraic_moment_profile(es.get_kernel("linc0"), 1)
    assert not np.signbit(vals[0])
    assert not np.signbit(es.algebraic_moment(es.get_kernel("linc0"), 1, 1.0))
