"""Small dense-linear-algebra helpers shared across the package.

Each exact step has one kernel here, which both the loop integrator and
the propagators call. Exponentials of the integrator's anti-hermitian
generators are exact: in closed form at k <= 2 (every family loop touches
at most two levels, so its generators lie in u(2)), through an
eigendecomposition above. The k = 2 form is su2_exp, the one SU(2) closed
form, which also gives the co-rotating two-level steps of the propagators;
su2_mul multiplies such pairs and su2_matrix writes one out as a 2 x 2
matrix. Every route is unitary up to roundoff, which the holonomy code
relies on. Every rank-1 step I + a|v><v| of the propagators (a kick, or
a midpoint step, a constant-H edge's one step among them) goes through
rank1_product, in place, chunk by chunk in the one batch-last layout of
run_layout. Ordered products reduce pairwise, as sums of elementwise outer
products at k <= 2 and batched matmuls above. Batched inputs use a leading
batch axis everywhere else.
"""
from __future__ import annotations

import numpy as np

CHUNK = 32  # longest chunk of run_layout; rank-1 outputs depend on it at roundoff


def unitarity_defect(m: np.ndarray) -> float:
    """Max-entry norm of M†M - I."""
    d = m.shape[-1]
    return float(np.abs(m.conj().T @ m - np.eye(d)).max())


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
    """The k = 2 closed form of expm_antihermitian: e^{-i a0} su2_exp(Re b, -Im b, a3)."""
    h00, h11 = -g[..., 0, 0].imag, -g[..., 1, 1].imag  # Re of the diagonal of H = iG
    h10 = 1j * g[..., 1, 0]  # conj(b), the lower entry of H, which eigh reads
    alpha, beta = su2_exp(h10.real, h10.imag, (h00 - h11) / 2)
    return su2_matrix(alpha, beta, np.exp(-1j * ((h00 + h11) / 2)))


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


def rank1_product(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Ordered products of the steps I + a_j |v_j><v_j|, later left, chunk by chunk.

    The steps come in the (L, K) layout of run_layout: step j of chunk c has
    the state v[j, c] (v of shape (L, K, d)) and the coefficient a[j, c]. A
    step with a zero coefficient, as padding takes, and a step with a zero
    state are exact identities. All K chunk products accumulate at once in a
    batch-last (d, d, K) array, x <- x + a_j v_j (v_j† x) for j = 0..L-1:
    O(d^2) per step instead of a d x d factor and a d^3 product. Returns the
    K chunk products, shape (K, d, d), for the caller to multiply in time
    order.

    Each iteration forms its own conjugated and scaled rows from its slice
    of v. Forming them for all steps at once was measured slower, from
    17 000 steps on by up to 40% (d = 2-5), as it adds two arrays the size of
    v that the loop streams through.
    """
    _, k, d = v.shape
    x = np.zeros((d, d, k), dtype=complex)
    x[np.arange(d), np.arange(d)] = 1.0
    s = np.empty((d, k), dtype=complex)
    t = np.empty_like(x)
    for wj, aj in zip(v.transpose(0, 2, 1), a):
        np.einsum("ik,ick->ck", wj.conj(), x, out=s)  # v_j† x in every chunk
        np.multiply((aj * wj)[:, None, :], s, out=t)
        x += t
    return x.transpose(2, 0, 1)


def su2_exp(ax: np.ndarray, ay: np.ndarray, az: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i (ax sigma_x + ay sigma_y + az sigma_z)) as its SU(2) pair, elementwise.

    The pair (alpha, beta) stands for [[alpha, -conj(beta)], [beta, conj(alpha)]].
    With r = |a| and s = sin(r) / r (exactly 1 at r = 0): alpha = cos r - i s az,
    beta = s ay - i s ax, their parts written in place. r is the square root
    of the sum of squares, or hypot where the squares overflow, so that the
    pair stays finite and unitary up to norms near the float maximum. One
    test finds out whether any square overflows: np.vdot sums the squares
    without a floating-point warning, and its sum is finite when they are.
    """
    if np.vdot(ax, ax) + np.vdot(ay, ay) + np.vdot(az, az) < np.inf:
        r = np.sqrt(ax * ax + ay * ay + az * az)
    else:
        with np.errstate(over="ignore"):
            r = np.sqrt(ax * ax + ay * ay + az * az)
        r = np.where(np.isfinite(r), r, np.hypot(np.hypot(ax, ay), az))
    s = np.divide(np.sin(r), r, out=np.ones_like(r), where=r > 0)
    alpha, beta = np.empty(r.shape, dtype=complex), np.empty(r.shape, dtype=complex)
    np.cos(r, out=alpha.real)
    np.multiply(s, ay, out=beta.real)
    np.negative(s, out=s)
    np.multiply(s, az, out=alpha.imag)
    np.multiply(s, ax, out=beta.imag)
    return alpha, beta


def su2_mul(a1: np.ndarray, b1: np.ndarray,
            a0: np.ndarray, b0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The SU(2) pair of (a1, b1) times (a0, b0), elementwise (see su2_exp).

    Four complex multiplications instead of a 2 x 2 matmul's eight.
    """
    return a1 * a0 - b1.conj() * b0, b1 * a0 + a1.conj() * b0


def su2_matrix(alpha: np.ndarray, beta: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """phase times the 2 x 2 matrix of the SU(2) pair (alpha, beta), elementwise (see su2_exp)."""
    out = np.empty(alpha.shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1] = alpha, -beta.conj()
    out[..., 1, 0], out[..., 1, 1] = beta, alpha.conj()
    out *= phase[..., None, None]
    return out


def run_layout(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch-last layout of consecutive runs of counts[r] >= 1 items, in chunks of one run each.

    The chunk length L is a power of two. If no run is longer than CHUNK,
    L is the least one at or above the longest run, and every run is one
    chunk. Otherwise L is the greatest one at or below total / 128 within
    [4, CHUNK], total = sum(counts), so that about 128 chunks or more run
    side by side: a run of 250-1000 items takes L = 4, and from 4096 items
    in total L = CHUNK and the chunks grow in number. Run r takes
    chunks[r] = ceil(counts[r] / L) chunks. Returns chunks, and for each
    slot [j, c] of the (L, K) layout the run that owns it (owner, by chunk)
    and the position in its run of the item there (pos): item pos = L i + j
    of chunk i of the run; pos >= counts of its run marks padding.
    """
    longest = int(counts.max())
    if longest <= CHUNK:
        chunk = 1 << (longest - 1).bit_length()
    else:
        chunk = min(CHUNK, 1 << max(2, (int(counts.sum()) // 128).bit_length() - 1))
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
    left per run, each product by su2_mul. Returns the pairs of the run
    products.
    """
    while True:
        while alpha.shape[0] > 1:
            alpha, beta = su2_mul(alpha[1::2], beta[1::2], alpha[0::2], beta[0::2])
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
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


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
