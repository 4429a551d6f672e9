"""Galerkin discretization of the localized Kodaira Laplacian on C (n = 1).

The truncated space in degree q is spanned by the Landau-level (charge)
states |n_a, n_b>, n_a + n_b <= D, of the reference Gaussian
phi_ref = lam |z|^2 (times dzbar when q = 1), where lam = lam_ref > 0 is a
plain float: the |z|^2 coefficient of the weight's quadratic model, in
absolute value, unless a caller passes its own.  With
s = sqrt(2 lam), z = x + iy and the commuting ladders a, b of the model
operator,

  z = (a^+ + b) / s,  d/dzbar = (s / 2)(b - a^+),  d/dz = (s / 2)(a - b^+),

and |n_a, n_b> = (a^+)^n_a (b^+)^n_b |0, 0> / sqrt(n_a! n_b!) has level
n_a + n_b and angular-momentum charge c = n_a - n_b (the creation/annihilation
picture of Ma-Marinescu, Holomorphic Morse Inequalities and Bergman Kernels).
As functions, |n_a, n_b> = P e^{-phi_ref} with

  P_(c+j, j) = (-1)^j v_c(z) l_j^(c)(2 lam |z|^2),  P_(j, c+j) = conj(P_(c+j, j)),

where v_c = z^c sqrt(lam s^(2c) / (pi c!)) are the model-normalized
holomorphic powers and l_j^(c) the orthonormal Laguerre functions.  They span
the same space as z^a zbar^b e^{-phi_ref}, a + b <= D, and are orthonormal in
L^2(dV) with dV = 2 dm, so the Gram matrix is the identity and the Galerkin
problem is a standard Hermitian eigenproblem.  The operator for a weight phi
acts through

  dbar_s u = (d/dzbar + phi_zbar) u  (on functions),
  dbar_s^* f = (-d/dz + phi_z) f     (on dzbar-coefficients),

both in L^2(dV), and the Laplacian is the form |A u|^2 of A = dbar_s (q = 0)
or A = dbar_s^* (q = 1).  On the polynomial factors the derivatives are the
ladders, dP/dzbar = s sqrt(n_b) P_(n_a, n_b-1) and dP/dz = s sqrt(n_a)
P_(n_a-1, n_b).  The Laplacian is assembled on one of two paths:

* Polynomial weights (``WeightPolynomial``) take the exact path, with no
  quadrature: ``gram`` is the identity, ``gram_defect`` and ``quad_order`` 0.
  A expands into ladder terms (a^+)^k a^l b^m (b^+)^r, each a shift by
  (k - l, r - m) with a coefficient depending on n_a and n_b; terms with the
  same shift are merged, and A^H A is summed from pairs of shifts straight
  into its charge-class blocks by an index plan made once per D, g (below)
  and shifts; the dense ``laplacian`` and ``gram`` are built only when read.
* Blended weights (``ExtendedWeight``) take the quadrature path: tensor
  Gauss-Hermite quadrature against e^{-2 phi_ref}, by default a dense rule.
  An order-m rule integrates the Gram matrix exactly once m > D; orders
  m <= D are refused with GramConditioningError, and above that the Gram
  defect max|G - I| is reported, not guarded.

A monomial z^a zbar^b shifts the charge by a - b, so the exact Laplacian
couples charges only modulo g = gcd |a - b| over the weight's monomials:
g = 0 (|z|^2) makes every charge its own block, 2D + 1 of them, the
gap-cubic weight (g = 3) splits into three, and g = 1 is one block.  Each
class is assembled and solved on its own.  The basis is graded by level and
each class is ordered by level, so the degree-D' matrices are the leading
(D'+1)(D'+2)/2 blocks of the degree-D ones for any D' <= D, and a leading
block of the truncation is a leading block of every class:
``leading_block_spectra`` takes the eigenvalues of several truncations from
one exact assembly.  On the model weight |z|^2 every eigenvalue is exact to
roundoff (2(b + q) with multiplicity D + 1 - b) up to at least D = 64.

The ladder coefficients are real, and conj(P_(n_a, n_b)) = P_(n_b, n_a), so
for a weight with real coefficients (phi symmetric under y -> -y) the
Laplacian is real: exactly on the exact path, and up to quadrature roundoff,
which is dropped, on the blended one (the tensor rule is symmetric under
y -> -y but not rotation exact, so blended weights are solved as one block).
Either way the solve then runs in real arithmetic.  Because the basis carries
the reference Gaussian rather than e^{-phi}, negative-curvature weights pose
no integrability problem: the true weight enters only through its
derivatives.

The Bergman kernel uses the holomorphic sub-basis v_a e^{-phi} (the states
|a, 0> for the model weight), whose Gram matrix differs from the identity
only through phi - phi_ref.  It is integrated by quadrature for every
weight, from one table of nodes and powers per (order, D, lam_ref); when phi
is symmetric under y -> -y on the nodes the Gram matrix is real, a real
product over the y < 0 half of the rule with doubled weights (plus the y = 0
row at odd orders).  Its Cholesky factor is the one guarded step: a Gram that
is not positive definite, or whose pivot ratio falls below GRAM_GUARD, raises
GramConditioningError.

scipy is imported inside the functions that solve or factor, so loading the
package, or running an experiment with no Galerkin solve, never loads it.
They call through the ``scipy.linalg`` module attributes, which the
benchmark's tracer rebinds.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import _points
from .weights import ExtendedWeight, WeightPolynomial

__all__ = [
    "GramConditioningError",
    "GalerkinBasis",
    "GalerkinSystem",
    "HolomorphicBasis",
    "build_system",
    "leading_block_spectra",
    "holomorphic_subsystem",
    "bergman_kernel_numeric",
    "spectral_projector_kernel",
    "heat_kernel_numeric",
    "spectral_gap",
    "hodge_residual",
    "KERNEL_TOLERANCE",
    "GRAM_GUARD",
]

KERNEL_TOLERANCE = 1e-7
GRAM_GUARD = 1e-12


class GramConditioningError(np.linalg.LinAlgError):
    """Gram matrix too ill-conditioned for the requested truncation."""


def _model_lambda(weight) -> float:
    """|lambda| of the weight's |z|^2 coefficient (its model's): the reference Gaussian's lam."""
    model = weight.model if isinstance(weight, ExtendedWeight) else weight
    lam = abs(model.coeffs.get((1, 1), 0j).real)
    if not lam:
        raise ValueError("weight has no quadratic part at 0 to fix the reference Gaussian")
    return lam


@functools.cache
def _hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The order-``order`` Gauss-Hermite nodes and weights, computed once, read-only."""
    t, w = np.polynomial.hermite.hermgauss(order)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def gauss_hermite_nodes(order: int, lam_ref: float) -> tuple[np.ndarray, np.ndarray]:
    """Tensor nodes z and weights for integrals of f(z) e^{-2 lam_ref |z|^2} dV.

    One-dimensional Gauss-Hermite nodes are rescaled so the Gaussian matches
    e^{-2 lam_ref x^2} per real axis; the weight includes the dV = 2 dm factor.
    """
    t, w = _hermite_rule(order)
    x = t / math.sqrt(2.0 * lam_ref)
    w1 = w / math.sqrt(2.0 * lam_ref)
    z = (x[:, None] + 1j * x[None, :]).ravel()
    wt = 2.0 * (w1[:, None] * w1[None, :]).ravel()
    return z, wt


def _holomorphic_powers(degree: int, lam_ref: float, z: np.ndarray) -> np.ndarray:
    """Model-normalized powers v_a(z), a <= degree, shape (degree + 1, len(z))."""
    v = np.empty((degree + 1, z.size), dtype=complex)
    v[0] = math.sqrt(lam_ref / math.pi)
    for a in range(1, degree + 1):
        v[a] = v[a - 1] * z * math.sqrt(2.0 * lam_ref / a)
    return v


@functools.lru_cache(maxsize=2)
def _holomorphic_table(order: int, degree: int, lam_ref: float) -> tuple[np.ndarray, ...]:
    """The tensor rule y-major (nodes, weights), its folded weights and v_a at the nodes; read-only.

    Row r of the (order, order) node grid mirrors row -1 - r, so the y < 0
    rows lead; the folded weights cover the rows y <= 0, doubled for y < 0.
    """
    z, wt = (a.reshape(order, order).T.ravel() for a in gauss_hermite_nodes(order, lam_ref))
    lower = order // 2 * order
    folded = np.concatenate((2.0 * wt[:lower], wt[lower : lower + order % 2 * order]))
    table = (z, wt, folded, _holomorphic_powers(degree, lam_ref, z))
    for a in table:
        a.flags.writeable = False
    return table


@dataclass(frozen=True)
class GalerkinBasis:
    """Truncated orthonormal charge-state basis in degree q.

    ``n_a`` and ``n_b`` (read-only) index the charge states |n_a, n_b>,
    n_a + n_b <= D, graded by level n_a + n_b so that a lower truncation is a
    leading block of a higher one; level n occupies positions
    n(n+1)/2 .. n(n+1)/2 + n, n_a ascending.  ``lam_ref`` is the reference
    Gaussian's lam.
    """

    q: int
    degree: int
    lam_ref: float
    n_a: np.ndarray = field(init=False, repr=False, compare=False)
    n_b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.q not in (0, 1):
            raise ValueError("q must be 0 or 1")
        if self.degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        level = np.repeat(np.arange(self.degree + 1), np.arange(1, self.degree + 2))
        n_a = np.arange(level.size) - level * (level + 1) // 2
        n_b = level - n_a
        n_a.flags.writeable = n_b.flags.writeable = False
        object.__setattr__(self, "n_a", n_a)
        object.__setattr__(self, "n_b", n_b)

    def __len__(self) -> int:
        return self.n_a.size

    def tabulate(self, z: np.ndarray) -> np.ndarray:
        """Polynomial factors P of the states P e^{-lam_ref |z|^2}, shape (len(z), len(self)).

        Along each charge line c = n_a - n_b >= 0, P_(c+j, j) = (-1)^j v_c
        l_j^(c)(x) with x = 2 lam_ref |z|^2; the orthonormal Laguerre
        functions come from their three-term recurrence in j, all c at once:
        sqrt((j+1)(j+1+c)) l_{j+1} = (2j+1+c-x) l_j - sqrt(j(j+c)) l_{j-1}.
        """
        z = np.asarray(z, dtype=complex).ravel()
        x = 2.0 * self.lam_ref * np.abs(z) ** 2
        v = _holomorphic_powers(self.degree, self.lam_ref, z)
        values = np.empty((len(self), z.size), dtype=complex)
        prev = ell = np.ones((self.degree + 1, z.size))
        for j in range(self.degree // 2 + 1):
            c = np.arange(self.degree - 2 * j + 1)
            n = c + 2 * j
            line = (-1) ** j * ell * v[: c.size]
            values[n * (n + 1) // 2 + c + j] = line
            values[n * (n + 1) // 2 + j] = line.conj()
            c = c[:-2, None]
            step = (2 * j + 1 + c - x) * ell[: c.size]
            step -= np.sqrt(j * (j + c)) * prev[: c.size]
            prev, ell = ell, step / np.sqrt((j + 1) * (j + 1 + c))
        return values.T

    def functions(self, z: np.ndarray) -> np.ndarray:
        """Basis values |n_a, n_b>(z) including the reference Gaussian factor."""
        z = np.asarray(z, dtype=complex).ravel()
        return self.tabulate(z) * np.exp(-self.lam_ref * np.abs(z) ** 2)[:, None]


def _dbar_image(basis: GalerkinBasis, weight, z: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The image of the tabulated ``values`` at z under dbar_s (q = 0) or dbar_s^* (q = 1).

    ``values`` is overwritten and returned.  Both come without the reference
    Gaussian, which the quadrature carries, and act row by row (node by node).
    The weight is an ``ExtendedWeight`` or, as the tests' quadrature
    reference for the exact path, a ``WeightPolynomial``.
    The derivative of a level-n state is a multiple of a level-(n - 1) one,
    so the levels are replaced from the top down.
    """
    s = math.sqrt(2.0 * basis.lam_ref)
    poly = isinstance(weight, WeightPolynomial)
    if basis.q == 0:
        mult = (weight.d_zbar().value(z) if poly else weight.d_zbar(z)) - basis.lam_ref * z
    else:
        mult = (weight.d_z().value(z) if poly else weight.d_z(z)) + basis.lam_ref * np.conj(z)
    for n in range(basis.degree, -1, -1):
        first = n * (n + 1) // 2
        level = values[:, first : first + n + 1]
        level *= mult[:, None]
        below = values[:, first - n : first]
        if basis.q == 0:  # + dP/dzbar = s sqrt(n_b) P_(n_a, n_b - 1), n_a < n
            level[:, :n] += s * np.sqrt(n - np.arange(n)) * below
        else:  # - dP/dz = -s sqrt(n_a) P_(n_a - 1, n_b), n_a > 0
            level[:, 1:] -= s * np.sqrt(np.arange(1.0, n + 1)) * below
    return values


@dataclass(frozen=True)
class GalerkinSystem:
    """Assembled Gram and Laplacian matrices with their eigenpairs, all in the charge states.

    ``eigenvectors`` holds orthonormal coefficient columns, V^H V = I, real
    when the weight's coefficients are real.  Eigenvalues are sorted
    ascending.  ``gram`` is the identity on the exact path (``quad_order`` 0)
    and the quadrature Gram matrix otherwise (real, the identity up to
    ``gram_defect`` = max|G - I|); the eigensolve takes it to be the identity.
    The Laplacian is kept in class blocks; ``laplacian`` and an exact ``gram`` are built when read.
    """

    basis: GalerkinBasis
    weight: WeightPolynomial | ExtendedWeight
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    gram_defect: float
    quad_order: int
    _classes: tuple[np.ndarray, ...] = field(repr=False)
    _blocks: tuple[np.ndarray, ...] = field(repr=False)
    _gram: np.ndarray | None = field(default=None, repr=False)

    @functools.cached_property
    def laplacian(self) -> np.ndarray:
        lap = np.zeros((len(self.basis),) * 2, dtype=self._blocks[0].dtype)
        for idx, block in zip(self._classes, self._blocks):
            lap[idx[:, None], idx] = block
        return lap

    @functools.cached_property
    def gram(self) -> np.ndarray:
        return np.eye(len(self.basis)) if self._gram is None else self._gram

    @property
    def q(self) -> int:
        return self.basis.q

    @property
    def degree(self) -> int:
        return self.basis.degree

    def zero_tolerance(self) -> float:
        return _zero_tolerance(self.eigenvalues)

    def eval_modes(self, z, columns=None) -> np.ndarray:
        """Eigenfunction values psi_j(z), shape (len(z), #columns)."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        vec = self.eigenvectors if columns is None else self.eigenvectors[:, columns]
        return self.basis.functions(z) @ vec


def _zero_tolerance(eigenvalues: np.ndarray) -> float:
    """Upper edge of the numerical zero band of a spectrum."""
    top = float(eigenvalues.max(initial=0.0))
    return KERNEL_TOLERANCE * max(top, 1.0)


def _default_order(degree: int, weight) -> int:
    if isinstance(weight, WeightPolynomial):
        return degree + weight.degree + 2
    return max(2 * degree, degree + 12)


def _basis(weight, q: int, degree: int) -> GalerkinBasis:
    """The basis in degree q whose reference Gaussian is the weight's model."""
    return GalerkinBasis(q, degree, _model_lambda(weight))


def build_system(weight, q: int, degree: int, quad_order: int | None = None) -> GalerkinSystem:
    """Assemble Gram G and Laplacian form Q for the weight in degree q, and solve Qv = mu v.

    Parameters
    ----------
    weight : WeightPolynomial or ExtendedWeight.
        A ``WeightPolynomial`` takes the exact path (Q = A^H A, G = I,
        ``quad_order`` 0); an ``ExtendedWeight`` is assembled by quadrature.
    q : form degree, 0 or 1.
    degree : truncation degree D; the basis has (D+1)(D+2)/2 elements.
    quad_order : Gauss-Hermite points per axis, read only on the quadrature
        path.  The default is a dense rule; orders <= D raise
        GramConditioningError.

    The reference Gaussian is the weight's own quadratic part at 0.
    """
    basis = _basis(weight, q, degree)
    if isinstance(weight, WeightPolynomial):
        classes, blocks = _class_laplacians(basis, weight)
        mu, vecs = _solve_classes(classes, blocks)
        gram, defect, order = None, 0.0, 0
    else:
        order = quad_order if quad_order is not None else _default_order(degree, weight)
        if order <= degree:
            raise GramConditioningError(
                f"build_system(q={q}, D={degree}): quadrature order {order} cannot"
                f" integrate the Gram matrix (needs more than D = {degree})"
            )
        import scipy.linalg

        gram, lap = _assemble(basis, weight, order)
        # evd beats the default evr on real matrices, not on complex ones
        mu, vecs = scipy.linalg.eigh(lap, driver="evd" if np.isrealobj(lap) else None)
        defect = float(np.abs(gram - np.eye(len(basis))).max())
        classes, blocks = (np.arange(len(basis)),), (lap,)
    _check_psd(mu, q, degree)
    return GalerkinSystem(basis, weight, mu, vecs, defect, order, classes, blocks, gram)


def _positions(i: np.ndarray, j: np.ndarray, degree: int) -> np.ndarray:
    """Basis positions of the charge states |i, j>, -1 for states outside the degree-D basis."""
    n = i + j
    return np.where((i >= 0) & (j >= 0) & (n <= degree), n * (n + 1) // 2 + i, -1)


def _shift_terms(basis: GalerkinBasis, weight: WeightPolynomial) -> dict:
    """A = dbar_s (q = 0) or dbar_s^* (q = 1) as shifts: A|i, j> = sum f_(da, db) |i + da, j + db>.

    By z = (a^+ + b) / s and zbar = (a + b^+) / s, a monomial c z^al zbar^be
    of phi's derivative is the sum over k, l of C(al, k) C(be, l) c s^-(al+be)
    (a^+)^k a^l b^(al-k) (b^+)^(be-l), whose coefficients on |i, j> are roots
    of falling factorials.  Real for real weight coefficients.
    """
    s = math.sqrt(2.0 * basis.lam_ref)
    i, j = basis.n_a, basis.n_b
    one = np.ones(i.shape)
    if basis.q == 0:  # d/dzbar = (s / 2)(b - a^+)
        terms = {(0, -1): 0.5 * s * np.sqrt(j), (1, 0): -0.5 * s * np.sqrt(i + 1)}
        coeff = weight.d_zbar()
    else:  # -d/dz = (s / 2)(b^+ - a)
        terms = {(-1, 0): -0.5 * s * np.sqrt(i), (0, 1): 0.5 * s * np.sqrt(j + 1)}
        coeff = weight.d_z()
    for (al, be), c in coeff.coeffs.items():
        for k, l in itertools.product(range(al + 1), range(be + 1)):
            m, r, binom = al - k, be - l, math.comb(al, k) * math.comb(be, l)
            ga = math.prod([i - t for t in range(l)] + [i - l + 1 + t for t in range(k)], start=one)
            gb = math.prod([j + r - t for t in [*range(r), *range(m)]], start=one)
            f = np.sqrt(ga * gb) * (1.0 / s) ** (al + be) * (binom * c)
            terms[k - l, r - m] = terms.get((k - l, r - m), 0.0) + f
    return {shift: f.real if _real_coefficients(weight) else f for shift, f in terms.items()}


@functools.lru_cache(maxsize=4)
def _class_plan(degree: int, step: int, shifts: tuple) -> tuple[np.ndarray, ...]:
    """(classes, starts, flat, left, right) of the blocks for charge step g, read-only.

    Block c fills ``starts[c]:starts[c + 1]`` of one flat array.  Column |c>
    meets row |c + sigma - sigma'> where its image under the shift sigma
    meets the row's under sigma'; the row's sigma' term times the column's
    sigma term (``left`` and ``right`` in the shift-major term table) adds at ``flat``.
    """
    basis = GalerkinBasis(0, degree, 1.0)  # its states depend on D only
    n_a, n_b = basis.n_a, basis.n_b
    key = n_a - n_b if step == 0 else (n_a - n_b) % step
    classes = tuple(np.flatnonzero(key == c) for c in np.unique(key))
    sizes = np.array([idx.size for idx in classes])
    starts = np.concatenate(([0], np.cumsum(sizes**2)))
    base, width, local = np.empty((3, n_a.size), dtype=int)
    for idx, start, size in zip(classes, starts, sizes):
        base[idx], width[idx], local[idx] = start, size, np.arange(size)
    flat, left, right = [], [], []
    for (d, (da, db)), (e, (ea, eb)) in itertools.product(enumerate(shifts), repeat=2):
        row = _positions(n_a + da - ea, n_b + db - eb, degree)
        col = np.flatnonzero(row >= 0)
        flat.append(base[col] + local[row[col]] * width[col] + local[col])
        left.append(e * n_a.size + row[col])
        right.append(d * n_a.size + col)
    plan = (classes, starts, *map(np.concatenate, (flat, left, right)))
    for a in (*classes, *plan[1:]):
        a.flags.writeable = False
    return plan


def _class_laplacians(basis: GalerkinBasis, weight: WeightPolynomial) -> tuple[tuple, list]:
    """The charge classes and the blocks of A^H A on them, Hermitian to the last bit."""
    terms = _shift_terms(basis, weight)
    step = math.gcd(*(abs(a - b) for a, b in weight.coeffs))
    classes, starts, flat, left, right = _class_plan(basis.degree, step, tuple(terms))
    table = np.concatenate(list(terms.values()))
    vals = table[left].conj()
    vals *= table[right]
    lap = np.bincount(flat, vals.real, starts[-1])
    if np.iscomplexobj(vals):
        lap = lap + 1j * np.bincount(flat, vals.imag, starts[-1])
    blocks = [lap[a:b].reshape(idx.size, -1) for a, b, idx in zip(starts, starts[1:], classes)]
    for block in blocks:  # in place: every block stays a view of the one bincount
        block += block.conj().T
        block *= 0.5
    return classes, blocks


def _node_product(x: np.ndarray, real: bool) -> np.ndarray:
    """X^H X summed over the node rows, or with ``real`` only its real part.

    That is Re X^T Re X + Im X^T Im X, one real product over the interleaved
    parts of the level-major table.
    """
    if real:
        parts = np.ascontiguousarray(x.T).view(float)
        return parts @ parts.T
    out = x.conj().T @ x
    return 0.5 * (out + out.conj().T)


def _assemble(basis: GalerkinBasis, weight, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gram and Laplacian matrices by the order-``order`` tensor rule.

    The rule is symmetric under y -> -y, so the Gram matrix, and the
    Laplacian of a weight with real coefficients, are real up to roundoff,
    which is dropped.  One node table, its rows scaled by the root quadrature
    weights, holds the values and then, in place, their image, and is
    released on return, before any eigensolve.
    """
    z, wt = gauss_hermite_nodes(order, basis.lam_ref)
    values = basis.tabulate(z)
    values *= np.sqrt(wt)[:, None]
    gram = _node_product(values, True)
    lap = _node_product(_dbar_image(basis, weight, z, values), _real_coefficients(weight))
    return gram, lap


def _check_psd(mu: np.ndarray, q: int, degree: int) -> None:
    top = max(abs(mu[-1]), 1.0)
    if mu[0] < -1e-9 * top:
        raise GramConditioningError(
            f"Galerkin system (q={q}, D={degree}): spectrum not PSD,"
            f" min eigenvalue {mu[0]:.3e}"
        )


def _real_coefficients(weight) -> bool:
    """Whether every polynomial coefficient of the weight is real (phi symmetric under y -> -y)."""
    parts = (weight.inner, weight.model) if isinstance(weight, ExtendedWeight) else (weight,)
    return all(c.imag == 0 for p in parts for c in p.coeffs.values())


def _solve_classes(classes: tuple, blocks: list) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs by class block, stably sorted; eigenvectors go straight to their columns."""
    import scipy.linalg

    n = sum(idx.size for idx in classes)
    pairs = [scipy.linalg.eigh(block) for block in blocks]
    mu = np.empty(n)
    mu[np.concatenate(classes)] = np.concatenate([m for m, _ in pairs])
    order = np.argsort(mu, kind="stable")
    rank = np.argsort(order)
    vecs = np.zeros((n, n), dtype=blocks[0].dtype)
    for idx, (_, v) in zip(classes, pairs):
        vecs[idx[:, None], rank[idx]] = v
    return mu[order], vecs


def leading_block_spectra(
    weight, q: int, degree: int, blocks: tuple[int, ...]
) -> tuple[np.ndarray, ...]:
    """Eigenvalues of the exact Laplacian truncated at each degree in ``blocks``.

    The Laplacian of the polynomial weight is assembled once at ``degree``,
    in the charge states.  Each charge class is ordered by level, so the
    degree-D' truncation, the leading (D'+1)(D'+2)/2 basis functions, is a
    leading block of every class; each is solved for eigenvalues only (no
    eigenvectors) and must be positive semidefinite like a full build.  The
    N x N matrix is never formed.
    """
    import scipy.linalg

    if not isinstance(weight, WeightPolynomial):
        raise ValueError("leading-block spectra need a polynomial weight (the exact path)")
    if not all(0 <= b <= degree for b in blocks):
        raise ValueError(f"leading block degrees must lie in [0, {degree}], got {blocks}")
    classes, laps = _class_laplacians(_basis(weight, q, degree), weight)
    spectra = []
    for b in blocks:
        cuts = [np.searchsorted(idx, (b + 1) * (b + 2) // 2) for idx in classes]
        parts = [scipy.linalg.eigh(x[:m, :m], eigvals_only=True) for m, x in zip(cuts, laps) if m]
        mu = np.sort(np.concatenate(parts), kind="stable")
        _check_psd(mu, q, b)
        spectra.append(mu)
    return tuple(spectra)


@dataclass(frozen=True)
class HolomorphicBasis:
    """Holomorphic sub-basis {v_a e^{-phi}}, a <= D, with its Gram matrix.

    v_a = z^a sqrt(lam_ref (2 lam_ref)^a / (pi a!)) is orthonormal for the
    model weight lam_ref |z|^2, so the Gram matrix departs from the identity
    only through the weight's perturbation.  ``factor`` is its Cholesky
    factor in ``scipy.linalg.cho_factor`` form and ``cond`` the squared
    ratio of its smallest to largest pivot.  Spans the kernel candidates of
    the degree-0 Laplacian directly, so the Bergman kernel is a plain Gram
    inversion, no eigensolve.  ``weight`` is read only through its
    array-in/array-out ``value``.
    """

    weight: object
    degree: int
    lam_ref: float
    gram: np.ndarray
    factor: tuple[np.ndarray, bool]
    cond: float
    quad_order: int


def holomorphic_subsystem(
    weight,
    degree: int,
    quad_order: int | None = None,
    lam_ref: float | None = None,
) -> HolomorphicBasis:
    """Gram matrix of the holomorphic sub-basis under the weight's L^2(dV) inner product.

    ``lam_ref`` fixes the reference Gaussian, by default the weight's model's.
    Real when the weight is symmetric under y -> -y on the rule's nodes.
    """
    import scipy.linalg

    lam_ref = _model_lambda(weight) if lam_ref is None else lam_ref
    order = quad_order if quad_order is not None else _default_order(degree, weight)
    z, wt, folded, v = _holomorphic_table(order, degree, lam_ref)
    phi = weight.value(z)
    grid = phi.reshape(order, order)
    symmetric = np.array_equal(grid, grid[::-1])
    mass = folded if symmetric else wt
    n = mass.size
    mass = mass * np.exp(-2.0 * (phi[:n] - lam_ref * np.abs(z[:n]) ** 2))
    gram = _node_product((v[:, :n] * np.sqrt(mass)).T, symmetric)
    context = f"holomorphic_subsystem(D={degree})"
    try:
        factor = scipy.linalg.cho_factor(gram, lower=True)
    except np.linalg.LinAlgError as exc:
        raise GramConditioningError(f"{context}: Gram not positive definite") from exc
    piv = np.diag(factor[0]).real
    cond = float((piv.min() / piv.max()) ** 2)
    if cond < GRAM_GUARD:
        raise GramConditioningError(
            f"{context}: Gram pivot ratio {cond:.3e} below guard {GRAM_GUARD:.0e}"
        )
    return HolomorphicBasis(
        weight=weight,
        degree=degree,
        lam_ref=lam_ref,
        gram=gram,
        factor=factor,
        cond=cond,
        quad_order=order,
    )


def bergman_kernel_numeric(hol: HolomorphicBasis, z, w) -> np.ndarray:
    """Localized Bergman kernel K(z, w) = sum_ab v_a(z) (G^-1)_ab conj(v_b(w)) e^{-phi(z)-phi(w)}.

    Returns the (m_z, m_w) matrix K[i, j] = K(z_i, w_j) on the point sets z
    and w (see :mod:`kernel_lab.model` for point shapes).
    """
    import scipy.linalg

    zs, ws = _points(z, 1)[:, 0], _points(w, 1)[:, 0]

    def table(p: np.ndarray) -> np.ndarray:
        return _holomorphic_powers(hol.degree, hol.lam_ref, p) * np.exp(-hol.weight.value(p))

    vz = table(zs)
    vw = vz if np.array_equal(zs, ws) else table(ws)
    return vz.T @ scipy.linalg.cho_solve(hol.factor, vw.conj())


def _kernel_sum(fz: np.ndarray, fw: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_j c_j psi_j(z) psi_j(w)* over the c_j != 0, from mode tables (points x modes)."""
    cols = np.nonzero(coeffs)[0]
    return (fz[:, cols] * coeffs[cols]) @ fw[:, cols].conj().T


def _mode_kernel(system: GalerkinSystem, coeffs: np.ndarray, z, w) -> np.ndarray:
    """Kernel sum_j c_j psi_j(z) psi_j(w)* as the (m_z, m_w) matrix on the point sets z and w."""
    zs, ws = _points(z, 1)[:, 0], _points(w, 1)[:, 0]
    cols = np.nonzero(coeffs)[0]
    if not cols.size:
        return np.zeros((zs.size, ws.size), dtype=complex)
    fz = system.eval_modes(zs, cols)
    fw = fz if np.array_equal(zs, ws) else system.eval_modes(ws, cols)
    return _kernel_sum(fz, fw, coeffs[cols])


def _projector_selection(system: GalerkinSystem, c: float) -> np.ndarray:
    """The modes with mu <= c, plus the zero band."""
    if c < 0:
        raise ValueError("spectral threshold must be nonnegative")
    return system.eigenvalues <= max(c, system.zero_tolerance())


def _heat_weights(system: GalerkinSystem, t: float) -> np.ndarray:
    """e^{-t mu_j}, with the roundoff below 0 cut off."""
    if not t > 0:
        raise ValueError("heat time must be positive")
    return np.exp(-t * np.maximum(system.eigenvalues, 0.0))


def spectral_projector_kernel(system: GalerkinSystem, c: float, z, w) -> np.ndarray:
    """Kernel of the spectral projector onto eigenvalues mu <= c (plus the zero band)."""
    return _mode_kernel(system, _projector_selection(system, c).astype(float), z, w)


def heat_kernel_numeric(system: GalerkinSystem, t: float, z, w) -> np.ndarray:
    """Heat kernel sum_j e^{-t mu_j} psi_j(z) psi_j(w)* of the truncated operator."""
    return _mode_kernel(system, _heat_weights(system, t), z, w)


def spectral_gap(system) -> float:
    """Smallest eigenvalue above the zero band: inf of the nonzero spectrum.

    ``system`` is a GalerkinSystem or an ascending array of eigenvalues.
    """
    mu = system.eigenvalues if isinstance(system, GalerkinSystem) else np.asarray(system)
    above = mu[mu > _zero_tolerance(mu)]
    if above.size == 0:
        raise ValueError("no nonzero spectrum at this truncation")
    return float(above[0])


def dbar_pairings(sys0: GalerkinSystem, sys1: GalerkinSystem) -> tuple[np.ndarray, np.ndarray]:
    """Rectangular pairing matrices between degree-0 and degree-1 systems.

    Returns (E01, E10) with E01[j, i] = (b1_j | dbar_s b0_i) and
    E10[j, i] = (b0_j | dbar_s^* b1_i), both in L^2(dV): the rows of the
    exact operators that fall on the partner basis.  Both systems must share
    the polynomial weight and the reference Gaussian.
    """
    if sys0.q != 0 or sys1.q != 1:
        raise ValueError("pairings need a degree-0 and a degree-1 system, in that order")
    if sys0.basis.lam_ref != sys1.basis.lam_ref:
        raise ValueError("systems use different reference Gaussians")
    if sys0.weight != sys1.weight:
        raise ValueError("systems use different weights")
    weight = sys0.weight
    if not isinstance(weight, WeightPolynomial):
        raise ValueError("pairings need a polynomial weight (the exact path)")

    def rows(system: GalerkinSystem, partner: GalerkinSystem) -> np.ndarray:
        i, j = system.basis.n_a, system.basis.n_b
        out = np.zeros((len(partner.basis), len(system.basis)), dtype=complex)
        for (da, db), f in _shift_terms(system.basis, weight).items():
            row = _positions(i + da, j + db, partner.degree)
            out[row[row >= 0], row >= 0] += f[row >= 0]
        return out

    return rows(sys0, sys1), rows(sys1, sys0)


def _pseudo_inverse_apply(system: GalerkinSystem, rhs_coords: np.ndarray) -> np.ndarray:
    """Apply N = box^+ (zero modes annihilated) to a coefficient vector."""
    mu = system.eigenvalues
    tol = system.zero_tolerance()
    inv = np.where(mu > tol, 1.0 / np.where(mu > tol, mu, 1.0), 0.0)
    proj = system.eigenvectors.conj().T @ rhs_coords
    return system.eigenvectors @ (inv * proj)


def _kernel_projector_apply(system: GalerkinSystem, coords: np.ndarray) -> np.ndarray:
    vk = system.eigenvectors[:, _projector_selection(system, 0.0)]
    return vk @ (vk.conj().T @ coords)


def hodge_residual(
    sys_prev: GalerkinSystem | None,
    system: GalerkinSystem,
    sys_next: GalerkinSystem | None,
    samples: int = 20,
    seed: int = 0,
) -> float:
    """Residual of B = Id - dbar N dbar* - dbar* N dbar against the kernel projector.

    For q = 0 only the dbar* N^1 dbar term exists and the degree-1 system must
    share the truncation degree; for q = 1 only dbar N^0 dbar* exists and the
    degree-0 system must carry one extra degree (dbar* raises the polynomial
    degree by one).  The identity closes exactly in the truncated spaces for
    the model weight; the returned value is the max over random sample vectors
    of ||B u - (projector) u|| / ||u|| in coefficient space.
    """
    q = system.q
    if q == 0:
        if sys_next is None:
            raise ValueError("q = 0 needs the degree-1 neighbor system")
        if sys_next.degree != system.degree:
            raise ValueError("degree-1 neighbor must share the truncation degree")
        partner, (there, back) = sys_next, dbar_pairings(system, sys_next)
    elif q == 1:
        if sys_prev is None:
            raise ValueError("q = 1 needs the degree-0 neighbor system")
        if sys_prev.degree != system.degree + 1:
            raise ValueError("degree-0 neighbor must carry one extra truncation degree")
        partner, (back, there) = sys_prev, dbar_pairings(sys_prev, system)
    else:
        raise ValueError("q must be 0 or 1")

    rng = np.random.default_rng(seed)
    dim = len(system.basis)
    worst = 0.0
    for _ in range(samples):
        u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        bu = u - back @ _pseudo_inverse_apply(partner, there @ u)
        diff = bu - _kernel_projector_apply(system, u)
        worst = max(worst, float(np.linalg.norm(diff) / np.linalg.norm(u)))
    return worst
