"""Small dense-linear-algebra helpers shared across the package.

Exponentials of the loop integrator's anti-hermitian generators are exact:
in closed form at k <= 2 (every family loop touches at most two levels, so
its generators lie in u(2)), through an eigendecomposition above. Both are
unitary up to roundoff, which the holonomy code relies on. The propagators
need none; their rank-1 steps are exact in closed form (see dynamics) and
accumulate in place, chunk by chunk, and their two-level steps multiply as
SU(2) pairs, chunk by chunk too. Ordered products reduce pairwise, as sums
of elementwise outer products at k <= 2 and batched matmuls above. Batched
inputs use a leading batch axis everywhere, except inside rank1_product
and su2_runs_product.
"""
from __future__ import annotations

import numpy as np

CHUNK = 32  # most steps accumulated in place per chunk; outputs depend on it at roundoff


def unitarity_defect(m: np.ndarray) -> float:
    """Max-entry norm of M†M - I."""
    d = m.shape[-1]
    return float(np.max(np.abs(m.conj().T @ m - np.eye(d))))


def polar_project(m: np.ndarray) -> np.ndarray:
    """Nearest unitary in Frobenius norm, via SVD."""
    w, _, vh = np.linalg.svd(m)
    return w @ vh


def expm_antihermitian(g: np.ndarray) -> np.ndarray:
    """exp(G) for anti-hermitian G (batched on leading axes).

    iG = H is hermitian. At k = 1, exp(G) = exp(i Im G). At k = 2, write
    H = a0 I + [[a3, b], [conj(b), -a3]] with r = sqrt(a3^2 + |b|^2); then
    exp(G) = e^{-i a0} [[c - i s a3, -i s b], [-i s conj(b), c + i s a3]]
    with c = cos r and s = sin(r) / r (exactly 1 at r = 0). Above k = 2,
    exp(G) = V diag(exp(-i w)) V† with (w, V) = eigh(H). Every route reads
    only the real diagonal and the lower triangle of H, as eigh does; each is
    exact and unitary by construction, accurate to ~1e-15 here.
    """
    k = g.shape[-1]
    if k == 1:
        return np.exp(1j * g.imag)
    if k == 2:
        return _expm_u2(g)
    w, v = np.linalg.eigh(1j * g)
    phase = np.exp(-1j * w)
    return np.einsum("...ij,...j,...kj->...ik", v, phase, v.conj())


def _expm_u2(g: np.ndarray) -> np.ndarray:
    """The k = 2 closed form of expm_antihermitian, elementwise over the batch.

    The SU(2) factor is written by its real and imaginary parts, one rounding
    each, and then multiplied by the phase.
    """
    h00, h11 = -g[..., 0, 0].imag, -g[..., 1, 1].imag  # Re of the diagonal of H = iG
    b = (1j * g[..., 1, 0]).conjugate()  # H01 as eigh reads it, from the lower entry
    a0, a3 = (h00 + h11) / 2, (h00 - h11) / 2
    r = np.hypot(a3, np.abs(b))
    s = np.divide(np.sin(r), r, out=np.ones_like(r), where=r > 0)
    c, sa3, sb_re, sb_im = np.cos(r), s * a3, s * b.real, s * b.imag
    out = np.empty(g.shape, dtype=complex)
    re, im = out.real, out.imag
    re[..., 0, 0], im[..., 0, 0] = c, -sa3
    re[..., 1, 1], im[..., 1, 1] = c, sa3
    re[..., 0, 1], im[..., 0, 1] = sb_im, -sb_re  # -i s b
    re[..., 1, 0], im[..., 1, 0] = -sb_im, -sb_re  # -i s conj(b)
    out *= np.exp(-1j * a0)[..., None, None]
    return out


def fold_left(factors: np.ndarray) -> np.ndarray:
    """Ordered product factors[-1] @ ... @ factors[0] (later factors on the left).

    Pairwise batched reduction: each pass multiplies neighbours (2k+1, 2k),
    so the work runs in log2(M) batched products instead of M - 1 Python-level
    ones; an odd last factor is folded onto the last pair, keeping the order.
    """
    if factors.shape[0] == 0:
        raise ValueError("fold_left needs at least one factor")
    out = factors
    while out.shape[0] > 1:
        pairs = _matmul(out[1::2], out[0:-1:2])
        if out.shape[0] % 2:
            pairs[-1] = _matmul(out[-1], pairs[-1])
        out = pairs
    return out[0]


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b; at k <= 2 as a sum of outer products over the inner index.

    Elementwise over the batch, which for 1 x 1 and 2 x 2 factors is several
    times faster than a batched matmul.
    """
    k = a.shape[-1]
    if k > 2:
        return a @ b
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for j in range(1, k):
        out += a[..., :, j, None] * b[..., None, j, :]
    return out


def rank1_chunk(m: int) -> int:
    """Steps per chunk of rank1_product on a run of m steps.

    A run of up to CHUNK steps is one chunk. A longer one takes m // 128
    within [4, CHUNK], so that about 128 chunks run side by side: a kick row
    of 250-1000 steps pays 4-7 Python-level iterations instead of CHUNK, and
    from 4096 steps on every chunk holds CHUNK steps and the chunks grow in
    number.
    """
    if m <= CHUNK:
        return max(m, 1)
    return min(CHUNK, max(4, m // 128))


def rank1_product(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Ordered product of the steps I + a_j |v_j><v_j| over the rows of v, later left.

    v has shape (M, d) and a, one coefficient per step, shape (M,). The M
    steps are cut into K consecutive chunks of L = rank1_chunk(M), the last
    one padded with zero rows, which are exact identity steps. All K chunk
    products accumulate at once in a batch-last (d, d, K) array,
    x <- x + a_j v_j (v_j† x) for j = 0..L-1: O(d^2) per step instead of a
    d x d factor and a d^3 product. fold_left then multiplies the K chunk
    products in time order.

    Each iteration forms its own conjugated and scaled rows, from a (d, K)
    slice of the one padded copy of v. Forming them for all steps at once
    was measured slower, from 17 000 steps on by up to 40% (d = 2-5), as it
    adds two arrays the size of v that the loop streams through.
    """
    m, d = v.shape
    chunk = rank1_chunk(m)
    w, coef = _batch_last(v, chunk), _batch_last(a[:, None], chunk)[:, 0]
    x = np.zeros((d,) + w.shape[1:], dtype=complex)
    x[np.arange(d), np.arange(d)] = 1.0
    s = np.empty(w.shape[1:], dtype=complex)
    t = np.empty_like(x)
    for wj, aj in zip(w, coef):
        np.einsum("ik,ick->ck", wj.conj(), x, out=s)  # v_j† x in every chunk
        np.multiply((aj * wj)[:, None, :], s, out=t)
        x += t
    return fold_left(x.transpose(2, 0, 1))


def _batch_last(rows: np.ndarray, chunk: int) -> np.ndarray:
    """(M, d) rows as (chunk, d, K) with out[j, :, c] = rows[c * chunk + j], zero-padded."""
    m, d = rows.shape
    k, tail = divmod(m, chunk)
    out = np.zeros((chunk, d, k + (tail > 0)), dtype=rows.dtype)
    out[:, :, :k] = rows[: k * chunk].reshape(k, chunk, d).transpose(1, 2, 0)
    out[:tail, :, k:] = rows[k * chunk:, :, None]
    return out


def su2_exp(ax: np.ndarray, ay: np.ndarray, az: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i (ax sigma_x + ay sigma_y + az sigma_z)) as its SU(2) pair, elementwise.

    The pair (alpha, beta) stands for [[alpha, -conj(beta)], [beta, conj(alpha)]].
    With r = |a| and s = sin(r) / r (exactly 1 at r = 0): alpha = cos r - i s az,
    beta = s ay - i s ax, their parts written directly.
    """
    r = np.sqrt(ax * ax + ay * ay + az * az)
    s = np.divide(np.sin(r), r, out=np.ones_like(r), where=r > 0)
    alpha, beta = np.empty(r.shape, dtype=complex), np.empty(r.shape, dtype=complex)
    alpha.real, alpha.imag = np.cos(r), -s * az
    beta.real, beta.imag = s * ay, -s * ax
    return alpha, beta


def run_layout(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch-last layout of consecutive runs of counts[r] >= 1 items, in chunks of one run each.

    The chunk length L is the least power of two at or above the longest
    run, at most CHUNK; run r takes chunks[r] = ceil(counts[r] / L) chunks.
    Returns chunks, and for each slot [j, c] of the (L, K) layout the run
    that owns it (owner, by chunk) and the position in its run of the item
    there (pos): item pos = L i + j of chunk i of the run; pos >= counts of
    its run marks padding.
    """
    chunk = min(CHUNK, 1 << int(counts.max() - 1).bit_length())
    chunks = -(-counts // chunk)
    owner = np.repeat(np.arange(counts.size), chunks)
    pos = ((np.arange(owner.size) - np.repeat(np.cumsum(chunks) - chunks, chunks)) * chunk
           + np.arange(chunk)[:, None])
    return chunks, owner, pos


def su2_runs_product(alpha: np.ndarray, beta: np.ndarray,
                     chunks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ordered product of each run of SU(2) pairs (see su2_exp), later left.

    alpha and beta hold the factors in the (L, K) layout of run_layout,
    padded with identity pairs (1, 0); run r owns the next chunks[r] >= 1
    chunks. Neighbouring factors (2i, 2i + 1) multiply pairwise, in every
    chunk at once, until one is left per chunk; the chunk products, laid
    out the same way in chunks of their runs, reduce again, until one is
    left per run. A product of two pairs costs four complex multiplications
    instead of a 2 x 2 matmul's eight. Returns the pairs of the run products.
    """
    while True:
        while alpha.shape[0] > 1:
            x0, y0, x1, y1 = alpha[0::2], beta[0::2], alpha[1::2], beta[1::2]
            alpha, beta = x1 * x0 - y1.conj() * y0, y1 * x0 + x1.conj() * y0
        x, y = alpha[0], beta[0]
        if x.size == chunks.size:
            return x, y
        counts = chunks
        chunks, owner, pos = run_layout(counts)
        pad = pos >= counts[owner]
        at = np.minimum(pos, counts[owner] - 1) + (np.cumsum(counts) - counts)[owner]
        alpha, beta = x[at], y[at]
        alpha[pad], beta[pad] = 1.0, 0.0


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def dist_up_to_phase(u: np.ndarray, v: np.ndarray) -> float:
    """Max-entry distance min over a global phase: || e^{i phi} U - V ||_max.

    The phase is taken from tr(V†U), which is optimal for near-coincident
    unitaries and is the project-wide definition of "up to global phase".
    """
    tr = np.trace(v.conj().T @ u)
    if abs(tr) < 1e-300:
        return max_abs_diff(u, v)
    phase = tr / abs(tr)
    return max_abs_diff(u / phase, v)


def complex_pairs(m: np.ndarray) -> np.ndarray:
    """Float64 array of shape m.shape + (2,) holding [re, im] of each entry.

    The JSON form of every complex matrix, stack and state vector.
    """
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1)


def phase_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """|tr(V†U)| / dim, the global-phase-insensitive overlap."""
    d = u.shape[-1]
    return float(abs(np.trace(v.conj().T @ u)) / d)
