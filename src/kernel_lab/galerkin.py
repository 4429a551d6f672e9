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

where v_c = z^c sqrt(lam s^(2c) / (pi c!)) are the model-normalized powers,
tabulated by :mod:`kernel_lab.model`, and l_j^(c) the orthonormal Laguerre
functions.  They span the same space as z^a zbar^b e^{-phi_ref}, a + b <= D,
and are orthonormal in L^2(dV) with dV = 2 dm, so the Gram matrix is the
identity and the Galerkin problem is a standard Hermitian eigenproblem.  The
operator for a weight phi acts through

  dbar_s u = (d/dzbar + phi_zbar) u  (on functions),
  dbar_s^* f = (-d/dz + phi_z) f     (on dzbar-coefficients),

both in L^2(dV), and the Laplacian is the form |A u|^2 of A = dbar_s (q = 0)
or A = dbar_s^* (q = 1).  On the polynomial factors the derivatives are the
ladders, dP/dzbar = s sqrt(n_b) P_(n_a, n_b-1) and dP/dz = s sqrt(n_a)
P_(n_a-1, n_b).  The weight is split as phi = +-lam |z|^2 + psi, and the
reference part merges with the derivative exactly, in algebra: A is one
ladder operator, s b or -s a^+ (q = 0) and s b^+ or -s a (q = 1), by the
sign of phi's |z|^2 coefficient, plus the terms of psi's derivative.  The
Laplacian is assembled exactly, with no quadrature, for a polynomial weight
(``WeightPolynomial``): psi's derivative expands into ladder terms
(a^+)^k a^l b^m (b^+)^r, each a shift by (k - l, r - m) with a coefficient
depending on n_a and n_b; terms with the same shift are merged, and A^H A is
summed from pairs of shifts straight into its charge-class blocks by an index
plan made once per D, g (below) and shifts.  Where A is the one ladder term
(psi = 0: the model weight, up to a constant) A^H A is diagonal in the
charge states and a build reads its eigenpairs off the diagonal, with no
assembly and no eigensolve.  The dense ``laplacian`` and the identity
``gram`` are built only when read.

A monomial z^a zbar^b shifts the charge by a - b, so the exact Laplacian
couples charges only modulo g = gcd |a - b| over the weight's monomials:
g = 0 (|z|^2) makes every charge its own block, 2D + 1 of them, the
gap-cubic weight (g = 3) splits into three, and g = 1 is one block.  Each
class is assembled and solved on its own.  The basis is graded by level and
each class is ordered by level, so the degree-D' matrices are the leading
(D'+1)(D'+2)/2 blocks of the degree-D ones for any D' <= D, and a leading
block of the truncation is a leading block of every class:
``leading_block_gaps`` reads the bottom of the spectrum of several
truncations from one exact assembly, class block by class block, in order
of their lowest diagonal entries.  Each truncation starts from a candidate
bottom g, the smallest bottom found so far at it or at any smaller
truncation: a smaller truncation's eigenvector, padded with zeros, is a
trial vector of the larger one, so by Rayleigh-Ritz its eigenvalue bounds
the larger bottom from above.  Once g is finite a class is certified
without solving it: by Sylvester's law of inertia, a Cholesky factorization
of Q_c - (g - delta) I that succeeds proves that Q_c has no eigenvalue below
g - delta, with delta = n eps ||Q_c||_inf the size of an eigensolver's own
error.  A larger truncation is not factored whole: the Laplacian is banded
in level, so its new states couple only to the last rows of the smaller
truncation's block, and a factor of that block, held from its certificate
(or made at the new shift where it was solved or that certificate does not
carry over), extends across those rows by the Cholesky factorization of a
window of them and the new states (block form of Cholesky; on gap-cubic at
D = 32, 110 states in place of 187).  A class whose factorization fails,
and the first class of the smallest truncation, are solved and lower g.
On the model weight lam |z|^2 every class block is exactly diagonal, and
every eigenvalue, 2 lam (n_b + q) for lam > 0 and 2 |lam| (n_a + 1 - q) for
lam < 0, is within 4 eps of the top of the spectrum up to at least D = 64.

The ladder coefficients are real, and conj(P_(n_a, n_b)) = P_(n_b, n_a), so
for a weight with real coefficients (phi symmetric under y -> -y) the
Laplacian is real and the solve runs in real arithmetic.  Because the basis
carries the reference Gaussian rather than e^{-phi}, a polynomial weight needs
no cut-off, whatever the sign of its curvature: it enters only through its
derivatives.

The Bergman kernel uses the holomorphic sub-basis v_a e^{-phi} (the states
|a, 0> for the model weight), whose Gram matrix differs from the identity
only through phi - phi_ref.  It is integrated by a Gauss-Hermite rule of
order D + 14, for a polynomial weight or for the blend (``ExtendedWeight``)
that keeps e^{-2 phi} integrable, from one table of nodes and powers per
(D, lam_ref); when phi is symmetric under y -> -y on the nodes the Gram matrix
is real, a real product over the y < 0 half of the rule with doubled weights
(plus the y = 0 row at odd orders).  Its Cholesky factor is the one guarded step, shared with
the torus's theta Gram: a Gram that is not positive definite, or whose pivot
ratio falls below GRAM_GUARD, raises GramConditioningError.

Everything runs on numpy except the Laplacian eigensolve of a full build of
a non-model weight, which imports ``scipy.linalg`` inside ``_solve_classes``
and calls ``eigh`` through the module attribute, which the benchmark's
tracer rebinds.  Loading the package, running ``leading_block_gaps``,
building a model weight or running any shipped config never loads scipy.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model import _holomorphic_powers, _points
from .weights import ExtendedWeight, WeightPolynomial

__all__ = [
    "GramConditioningError",
    "GalerkinBasis",
    "GalerkinSystem",
    "HolomorphicBasis",
    "build_system",
    "leading_block_gaps",
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


def _guarded_cholesky(gram: np.ndarray, context: str) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor L of a Hermitian Gram, G = L L^H, and its squared pivot ratio.

    G must be positive definite with a ratio of at least GRAM_GUARD, else GramConditioningError.
    """
    try:
        factor = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise GramConditioningError(f"{context}: Gram not positive definite") from exc
    piv = np.diag(factor).real
    cond = float((piv.min() / piv.max()) ** 2)
    if cond < GRAM_GUARD:
        raise GramConditioningError(
            f"{context}: Gram pivot ratio {cond:.3e} below guard {GRAM_GUARD:.0e}"
        )
    return factor, cond


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
        l_j^(c)(x) with x = 2 lam_ref |z|^2.  The v_c come from the model's power
        table, and the orthonormal Laguerre functions from their three-term
        recurrence in j, all c at once:
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


@dataclass(frozen=True)
class GalerkinSystem:
    """The exact Laplacian of a polynomial weight with its eigenpairs, all in the charge states.

    ``eigenvectors`` holds orthonormal coefficient columns, V^H V = I, real
    when the weight's coefficients are real.  Eigenvalues are sorted
    ascending.  The Laplacian is kept in class blocks, each returned by
    ``_block`` (a diagonal one is made when read); the dense ``laplacian`` and
    ``gram``, the identity, are built when read.
    """

    basis: GalerkinBasis
    weight: WeightPolynomial
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    _classes: tuple[np.ndarray, ...] = field(repr=False)
    _block: Callable[[int], np.ndarray] = field(repr=False)
    # the benchmark's build counter reads the quadrature order: 0, as no assembly integrates
    quad_order = 0

    @property
    def _blocks(self) -> tuple[np.ndarray, ...]:
        return tuple(map(self._block, range(len(self._classes))))

    @functools.cached_property
    def laplacian(self) -> np.ndarray:
        lap = np.zeros((len(self.basis),) * 2, dtype=self._blocks[0].dtype)
        for idx, block in zip(self._classes, self._blocks):
            lap[idx[:, None], idx] = block
        return lap

    @functools.cached_property
    def gram(self) -> np.ndarray:
        return np.eye(len(self.basis))

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


def _gram_order(degree: int) -> int:
    """Gauss-Hermite order of the degree-D holomorphic Gram: D + 14 nodes per axis.

    m nodes are exact to degree 2m - 1, so the model's Gram, of degree 2D,
    is exact; the margin serves a blend's non-polynomial factor, and gives
    order 44 at D = 30.
    """
    return degree + 14


def _basis(weight, q: int, degree: int) -> GalerkinBasis:
    """The basis in degree q whose reference Gaussian is the weight's model."""
    return GalerkinBasis(q, degree, _model_lambda(weight))


def build_system(weight: WeightPolynomial, q: int, degree: int) -> GalerkinSystem:
    """Assemble the Laplacian form Q = A^H A of the weight in degree q, and solve Qv = mu v.

    Parameters
    ----------
    weight : WeightPolynomial.  Any other weight raises ValueError: Laplacians
        are assembled exactly, class block by class block.
    q : form degree, 0 or 1.
    degree : truncation degree D; the basis has (D+1)(D+2)/2 elements.

    The reference Gaussian is the weight's own quadratic part at 0.  Where A
    is one ladder term f (the model weight, up to a constant), Q is diagonal
    in the charge states, Q_ii = |f(i)|^2: those are the eigenvalues, taken
    class by class in the order ``_solve_classes`` gives, and the eigenvectors
    are unit vectors, with no block assembled and no eigensolve.
    """
    basis = _basis(weight, q, degree)
    terms = _shift_terms(basis, weight)
    if len(terms) == 1:
        (f,) = terms.values()
        classes = _charge_classes(degree, weight.charge_step)
        diagonal = f.conj() * f
        mu, vecs = _diagonal_pairs(classes, diagonal)

        def block(c: int) -> np.ndarray:
            return np.diag(diagonal[classes[c]])

    else:
        classes, _, assemble = _class_blocks(terms, degree, weight.charge_step)
        blocks = [assemble(c) for c in range(len(classes))]
        mu, vecs = _solve_classes(classes, blocks)
        block = blocks.__getitem__
    _check_psd(mu, q, degree)
    return GalerkinSystem(basis, weight, mu, vecs, classes, block)


def _positions(i: np.ndarray, j: np.ndarray, degree: int) -> np.ndarray:
    """Basis positions of the charge states |i, j>, -1 for states outside the degree-D basis."""
    n = i + j
    return np.where((i >= 0) & (j >= 0) & (n <= degree), n * (n + 1) // 2 + i, -1)


def _shift_terms(basis: GalerkinBasis, weight: WeightPolynomial) -> dict:
    """A = dbar_s (q = 0) or dbar_s^* (q = 1) as shifts: A|i, j> = sum f_(da, db) |i + da, j + db>.

    The weight is split first, phi = +-lam |z|^2 + psi with lam = lam_ref and
    the sign of phi's |z|^2 coefficient (+ if it has none), and the reference
    part merges with the derivative in algebra: with lam z = (s / 2)(a^+ + b),
    d/dzbar +- lam z is s b or -s a^+, and -d/dz +- lam zbar is s b^+ or -s a.
    Only psi's derivative is expanded.  By z = (a^+ + b) / s and
    zbar = (a + b^+) / s, a monomial c z^al zbar^be of it is the sum over k,
    l of C(al, k) C(be, l) c s^-(al+be) (a^+)^k a^l b^(al-k) (b^+)^(be-l),
    whose coefficients on |i, j> are roots of falling factorials, kept per
    (D, al, be) by ``_ladder_roots``.  Whatever |z|^2 coefficient phi has
    beyond +-lam stays in psi, so the split holds for any lam_ref; for the
    model weight psi is 0 and A is the one ladder term.  Real for real weight
    coefficients.  Any weight but a ``WeightPolynomial`` raises ValueError.
    """
    if not isinstance(weight, WeightPolynomial):
        raise ValueError("Laplacians are assembled exactly, from a polynomial weight")
    s = math.sqrt(2.0 * basis.lam_ref)
    i, j = basis.n_a, basis.n_b
    positive = weight.coeffs.get((1, 1), 0j).real >= 0
    psi = weight - WeightPolynomial.quadratic([basis.lam_ref if positive else -basis.lam_ref])
    if basis.q == 0:  # s b or -s a^+
        terms = {(0, -1): s * np.sqrt(j)} if positive else {(1, 0): -s * np.sqrt(i + 1)}
        coeff = psi.d_zbar()
    else:  # s b^+ or -s a
        terms = {(0, 1): s * np.sqrt(j + 1)} if positive else {(-1, 0): -s * np.sqrt(i)}
        coeff = psi.d_z()
    for (al, be), c in coeff.coeffs.items():
        for shift, binom, root in _ladder_roots(basis.degree, al, be):
            f = root * (1.0 / s) ** (al + be) * (binom * c)
            terms[shift] = terms.get(shift, 0.0) + f
    if all(c.imag == 0 for c in weight.coeffs.values()):  # phi symmetric under y -> -y
        return {shift: f.real for shift, f in terms.items()}
    return terms


@functools.lru_cache(maxsize=16)
def _ladder_roots(degree: int, al: int, be: int) -> tuple:
    """(shift, C(al, k) C(be, l), root) of each term (a^+)^k a^l b^(al-k) (b^+)^(be-l), read-only.

    ``root`` is the term's coefficient on |i, j>, the root of a product of
    falling factorials, at every basis state; it depends on D only.
    """
    basis = GalerkinBasis(0, degree, 1.0)  # its states depend on D only
    i, j = basis.n_a, basis.n_b
    one = np.ones(i.shape)
    roots = []
    for k, l in itertools.product(range(al + 1), range(be + 1)):
        m, r = al - k, be - l
        ga = math.prod([i - t for t in range(l)] + [i - l + 1 + t for t in range(k)], start=one)
        gb = math.prod([j + r - t for t in [*range(r), *range(m)]], start=one)
        root = np.sqrt(ga * gb)
        root.flags.writeable = False
        roots.append(((k - l, r - m), math.comb(al, k) * math.comb(be, l), root))
    return tuple(roots)


@functools.lru_cache(maxsize=8)
def _charge_classes(degree: int, step: int) -> tuple[np.ndarray, ...]:
    """Basis positions of each class of charge n_a - n_b modulo g (g = 0: each charge), by level."""
    basis = GalerkinBasis(0, degree, 1.0)  # its states depend on D only
    charge = basis.n_a - basis.n_b
    key = charge if step == 0 else charge % step
    classes = tuple(np.flatnonzero(key == c) for c in np.unique(key))
    for idx in classes:
        idx.flags.writeable = False
    return classes


@functools.lru_cache(maxsize=4)
def _class_plan(degree: int, step: int, shifts: tuple) -> tuple[np.ndarray, ...]:
    """(classes, bounds, flat, left, right) of the blocks for charge step g, read-only.

    Column |c> meets row |c + sigma - sigma'> where its image under the shift
    sigma meets the row's under sigma'; the row's sigma' term times the
    column's sigma term (``left`` and ``right`` in the shift-major term
    table) adds at ``flat`` of the column's class block, read row-major.  The
    entries of class c are ``bounds[c]:bounds[c + 1]``, in the same order
    within the class as over all classes.
    """
    basis = GalerkinBasis(0, degree, 1.0)  # its states depend on D only
    n_a, n_b = basis.n_a, basis.n_b
    classes = _charge_classes(degree, step)
    owner, width, local = np.empty((3, n_a.size), dtype=int)
    for c, idx in enumerate(classes):
        owner[idx], width[idx], local[idx] = c, idx.size, np.arange(idx.size)
    members, flat, left, right = [], [], [], []
    for (d, (da, db)), (e, (ea, eb)) in itertools.product(enumerate(shifts), repeat=2):
        row = _positions(n_a + da - ea, n_b + db - eb, degree)
        col = np.flatnonzero(row >= 0)
        members.append(owner[col])
        flat.append(local[row[col]] * width[col] + local[col])
        left.append(e * n_a.size + row[col])
        right.append(d * n_a.size + col)
    members = np.concatenate(members)
    order = np.argsort(members, kind="stable")
    bounds = np.searchsorted(members[order], np.arange(len(classes) + 1))
    plan = (classes, bounds, *(np.concatenate(a)[order] for a in (flat, left, right)))
    for a in (*classes, *plan[1:]):
        a.flags.writeable = False
    return plan


def _class_laplacians(basis: GalerkinBasis, weight: WeightPolynomial) -> tuple:
    """The charge classes, the diagonal of A^H A, and a function assembling its block on class c.

    The diagonal is sum_sigma |f_sigma|^2 over the shift terms, in basis
    order, without assembly.  Each block is Hermitian to the last bit, and
    is assembled only when asked for, so a caller holds only the blocks it keeps.
    """
    return _class_blocks(_shift_terms(basis, weight), basis.degree, weight.charge_step)


def _class_blocks(terms: dict, degree: int, step: int) -> tuple:
    """``_class_laplacians`` from A's shift terms and the charge step g."""
    classes, bounds, flat, left, right = _class_plan(degree, step, tuple(terms))
    table = np.concatenate(list(terms.values()))
    vals = table[left].conj()
    vals *= table[right]

    def block(c: int) -> np.ndarray:
        size, part = classes[c].size, slice(bounds[c], bounds[c + 1])
        lap = np.bincount(flat[part], vals.real[part], size * size)
        if np.iscomplexobj(vals):
            lap = lap + 1j * np.bincount(flat[part], vals.imag[part], size * size)
        lap = lap.reshape(size, size)
        lap += lap.conj().T
        lap *= 0.5
        return lap

    return classes, sum(np.abs(f) ** 2 for f in terms.values()), block


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


def _check_psd(mu: np.ndarray, q: int, degree: int) -> None:
    top = max(abs(mu[-1]), 1.0)
    if mu[0] < -1e-9 * top:
        raise GramConditioningError(
            f"Galerkin system (q={q}, D={degree}): spectrum not PSD,"
            f" min eigenvalue {mu[0]:.3e}"
        )


def _solve_classes(classes: tuple, blocks: list) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs by class block, stably sorted; eigenvectors go straight to their columns."""
    import scipy.linalg

    pairs = [scipy.linalg.eigh(block) for block in blocks]
    slots = np.concatenate(classes)
    mu, rank = _ranked(slots, np.concatenate([m for m, _ in pairs]))
    vecs = np.zeros((slots.size,) * 2, dtype=blocks[0].dtype)
    for idx, (_, v) in zip(classes, pairs):
        vecs[idx[:, None], rank[idx]] = v
    return mu, vecs


def _diagonal_pairs(classes: tuple, diagonal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_solve_classes`` of a diagonal Laplacian, from its (real-valued) diagonal, with no solve.

    Each class's entries are taken stably sorted, as an eigensolver returns a
    diagonal block's eigenvalues, and the eigenvector of each is the unit
    vector of its state, of the diagonal's dtype.
    """
    slots = np.concatenate(classes)
    owner = np.repeat(np.arange(len(classes)), [idx.size for idx in classes])
    states = slots[np.lexsort((diagonal.real[slots], owner))]
    mu, rank = _ranked(slots, diagonal.real[states])
    vecs = np.zeros((slots.size,) * 2, dtype=diagonal.dtype)
    vecs[states, rank[slots]] = 1.0
    return mu, vecs


def _ranked(slots: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values, placed at the basis positions ``slots``, stably sorted; and each slot's rank."""
    mu = np.empty(slots.size)
    mu[slots] = values
    order = np.argsort(mu, kind="stable")
    return mu[order], np.argsort(order)


def leading_block_gaps(weight, q: int, degree: int, blocks: tuple[int, ...]) -> tuple[float, ...]:
    """The lowest eigenvalue of the exact Laplacian truncated at each degree in ``blocks``.

    The Laplacian is assembled at ``degree``, one class block at a time and
    in order of the blocks' lowest diagonal entries, so only one block is
    held, with the Cholesky factor of its last certified truncation, and the
    N x N matrix is never formed.  Within a class the truncations run from
    the smallest up, each from the smallest bottom so far at it or below it,
    an upper bound on its own (Rayleigh-Ritz), which ``_lower_bottom``
    certifies, extending the factor of the truncation below, or lowers by a
    solve.
    """
    if not all(0 <= b <= degree for b in blocks):
        raise ValueError(f"leading block degrees must lie in [0, {degree}], got {blocks}")
    classes, diagonal, block = _class_laplacians(_basis(weight, q, degree), weight)
    bottoms = [math.inf] * len(blocks)
    upward = sorted(range(len(blocks)), key=blocks.__getitem__)
    for c in sorted(range(len(classes)), key=lambda c: diagonal[classes[c]].min()):
        lap, seed, below = block(c), math.inf, None
        for i in upward:
            m = np.searchsorted(classes[c], (blocks[i] + 1) * (blocks[i] + 2) // 2)
            if m:
                bottoms[i], below = _lower_bottom(
                    lap[:m, :m], min(bottoms[i], seed), q, blocks[i], below
                )
            seed = min(seed, bottoms[i])
        del lap, below  # before the next block is assembled
    return tuple(bottoms)


def _lower_bottom(block: np.ndarray, bottom: float, q: int, degree: int, below) -> tuple:
    """min(bottom, the Hermitian block's lowest eigenvalue), up to delta = n eps ||block||_inf.

    ``bottom`` is an upper bound on the truncation's lowest eigenvalue: inf,
    a class already solved, or the bottom of a smaller truncation.  Below a
    finite bottom, a Cholesky factorization of block - (bottom - delta) I
    that succeeds certifies the block, which is then not solved; delta, an
    eigensolver's own error, lets a block whose bottom ties pass.  Any other
    block is solved, and its eigenvalues must be positive semidefinite like a
    full build's.

    ``below`` is the truncation below, a leading block of this one, or None
    if there is none: ``(rows, tail, shift)``, its size and its certificate's
    factor square and shift (``_certify``), or ``(rows, None, None)`` where
    it was solved.  The same triple for this block, which the next
    truncation extends, is returned with the bottom.
    """
    if bottom < math.inf:
        shift = bottom - len(block) * np.finfo(float).eps * np.linalg.norm(block, np.inf)
        tail = _certify(block, shift, below)
        if tail is not None:
            return bottom, (len(block), tail, shift)
    mu = np.linalg.eigvalsh(block)
    _check_psd(mu, q, degree)
    return min(bottom, float(mu[0])), (len(block), None, None)


def _certify(block: np.ndarray, shift: float, below) -> np.ndarray | None:
    """Trailing square of a Cholesky factor proving block - shift I positive definite, else None.

    With no truncation below, it is the factor of the whole shifted block.
    Otherwise the block's leading ``rows`` states are the truncation below,
    and ``tail`` the trailing square of the factor L of some M <= P - s I,
    with P that leading block and s >= ``shift`` (None if it was solved).  The
    class is ordered by level and the Laplacian is banded in level, so the new
    states couple to the old ones only from a first row j on.  Eliminating
    the rows before j through L leaves the window

      W = [[L_jj L_jj^H + (s - shift) I, B_j], [B_j^H, E - shift I]],

    where L_jj is L's trailing square from j, B_j the coupling and E the new
    states' block (block form of Cholesky).  W lies below the Schur
    complement of those rows in block - shift I, so a W that factors proves
    the block positive definite, and its factor is the trailing square, from
    j, of the factor of a matrix below block - shift I.  If W fails, or L
    does not reach back to j, P is factored afresh at ``shift``: then W is
    that Schur complement, and a W (or a P) that fails is final.
    """
    if below is None:
        return _shifted_cholesky(block, shift)
    rows, tail, held = below
    coupled = np.flatnonzero(block[:rows, rows:].any(axis=1))
    j = coupled[0] if coupled.size else rows
    if tail is not None and held >= shift and j >= rows - len(tail):
        factor = _window(block, rows, j, tail, held, shift)
        if factor is not None:
            return factor
    tail = _shifted_cholesky(block[:rows, :rows], shift)
    return None if tail is None else _window(block, rows, j, tail, shift, shift)


def _window(block, rows: int, j: int, tail, held: float, shift: float) -> np.ndarray | None:
    """Lower Cholesky factor of ``_certify``'s window W, or None if W is not positive definite."""
    part = tail[len(tail) - rows + j :, len(tail) - rows + j :]
    window = block[j:, j:].copy()
    window[: rows - j, : rows - j] = part @ part.conj().T
    diag = np.arange(len(window))
    window[diag, diag] -= np.where(diag < rows - j, shift - held, shift)
    try:
        return np.linalg.cholesky(window)
    except np.linalg.LinAlgError:
        return None


def _shifted_cholesky(block: np.ndarray, shift: float) -> np.ndarray | None:
    """Lower Cholesky factor of block - shift I, or None when that is not positive definite.

    The shift is applied to the diagonal in place and undone exactly.
    """
    diag, saved = np.arange(len(block)), block.diagonal().copy()
    block[diag, diag] -= shift
    try:
        return np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        return None
    finally:
        block[diag, diag] = saved


@dataclass(frozen=True)
class HolomorphicBasis:
    """Holomorphic sub-basis {v_a e^{-phi}}, a <= D, with its Gram matrix.

    v_a = z^a sqrt(lam_ref (2 lam_ref)^a / (pi a!)) is orthonormal for the
    model weight lam_ref |z|^2, so the Gram matrix departs from the identity
    only through the weight's perturbation.  ``factor`` is its lower
    Cholesky factor L, G = L L^H, and ``cond`` the squared ratio of its
    smallest to largest pivot.  Spans the kernel candidates of
    the degree-0 Laplacian directly, so the Bergman kernel is a plain Gram
    inversion, no eigensolve.  ``weight`` is read only through its
    array-in/array-out ``value``.
    """

    weight: object
    degree: int
    lam_ref: float
    gram: np.ndarray
    factor: np.ndarray
    cond: float
    quad_order: int


def holomorphic_subsystem(
    weight, degree: int, *, lam_ref: float | None = None
) -> HolomorphicBasis:
    """Gram matrix of the holomorphic sub-basis under the weight's L^2(dV) inner product.

    ``lam_ref`` fixes the reference Gaussian, by default the weight's model's.
    The tensor Gauss-Hermite rule has the order ``_gram_order(degree)`` for
    every weight.  Real when the weight is symmetric under y -> -y on the
    rule's nodes.
    """
    lam_ref = _model_lambda(weight) if lam_ref is None else lam_ref
    order = _gram_order(degree)
    z, wt, folded, v = _holomorphic_table(order, degree, lam_ref)
    phi = weight.value(z)
    grid = phi.reshape(order, order)
    symmetric = np.array_equal(grid, grid[::-1])
    mass = folded if symmetric else wt
    n = mass.size
    mass = mass * np.exp(-2.0 * (phi[:n] - lam_ref * np.abs(z[:n]) ** 2))
    gram = _node_product((v[:, :n] * np.sqrt(mass)).T, symmetric)
    factor, cond = _guarded_cholesky(gram, f"holomorphic_subsystem(D={degree})")
    return HolomorphicBasis(weight, degree, lam_ref, gram, factor, cond, order)


def bergman_kernel_numeric(hol: HolomorphicBasis, z, w) -> np.ndarray:
    """Localized Bergman kernel K(z, w) = sum_ab v_a(z) (G^-1)_ab conj(v_b(w)) e^{-phi(z)-phi(w)}.

    Returns the (m_z, m_w) matrix K[i, j] = K(z_i, w_j) on the point sets z
    and w (see :mod:`kernel_lab.model` for point shapes).  With G = L L^H it
    is (L^-1 conj(v_z))^H (L^-1 conj(v_w)), one solve when z and w are equal.
    """
    zs, ws = _points(z, 1)[:, 0], _points(w, 1)[:, 0]

    def half(p: np.ndarray) -> np.ndarray:
        v = _holomorphic_powers(hol.degree, hol.lam_ref, p) * np.exp(-hol.weight.value(p))
        return np.linalg.solve(hol.factor, v.conj())

    hz = half(zs)
    hw = hz if np.array_equal(zs, ws) else half(ws)
    return hz.conj().T @ hw


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
    the polynomial weight and the reference Gaussian.  dbar_s^* is the adjoint
    of dbar_s, so E10 is the conjugate transpose of E01.
    """
    if sys0.q != 0 or sys1.q != 1:
        raise ValueError("pairings need a degree-0 and a degree-1 system, in that order")
    if sys0.basis.lam_ref != sys1.basis.lam_ref:
        raise ValueError("systems use different reference Gaussians")
    if sys0.weight != sys1.weight:
        raise ValueError("systems use different weights")
    weight = sys0.weight
    i, j = sys0.basis.n_a, sys0.basis.n_b
    e01 = np.zeros((len(sys1.basis), len(sys0.basis)), dtype=complex)
    for (da, db), f in _shift_terms(sys0.basis, weight).items():
        row = _positions(i + da, j + db, sys1.degree)
        e01[row[row >= 0], row >= 0] += f[row >= 0]
    return e01, e01.conj().T


def _pseudo_inverse_apply(system: GalerkinSystem, rhs_coords: np.ndarray) -> np.ndarray:
    """Apply N = box^+ (zero modes annihilated) to each column of a coefficient block."""
    mu = system.eigenvalues
    tol = system.zero_tolerance()
    inv = np.where(mu > tol, 1.0 / np.where(mu > tol, mu, 1.0), 0.0)
    proj = system.eigenvectors.conj().T @ rhs_coords
    return system.eigenvectors @ (inv[:, None] * proj)


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

    # one (dim, samples) block, one column per sample: the real and then the
    # imaginary part of each sample come off the generator in turn
    draws = np.random.default_rng(seed).standard_normal((samples, 2, len(system.basis)))
    u = (draws[:, 0] + 1j * draws[:, 1]).T
    diff = u - back @ _pseudo_inverse_apply(partner, there @ u) - _kernel_projector_apply(system, u)
    return float(np.max(np.linalg.norm(diff, axis=0) / np.linalg.norm(u, axis=0), initial=0.0))
