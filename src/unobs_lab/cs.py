"""The numpy-free scalar layer: errors, the CS matrix, its checks, the row writer.

Everything here is plain Python, so the closed-form commands (eb,
equivalence, heavytail moments) run without importing numpy. model_core
re-exports every name, which stays the usual place to import them from.
"""

from __future__ import annotations

from collections import namedtuple

__all__ = [
    "DomainError",
    "RankDeficiencyError",
    "CsvFormatError",
    "CSMatrix",
    "validate_cs",
    "icc",
    "write_rows",
    "format_float",
]


class DomainError(ValueError):
    """A parameter lies outside the admissible region of the model."""


class RankDeficiencyError(ValueError):
    """The GLS normal equations are singular."""


class CsvFormatError(ValueError):
    """A dataset CSV file violates the long-format contract."""


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (reproducible output)."""
    return format(float(x), ".17g")


class CSMatrix(namedtuple("CSMatrix", "n lam phi")):
    """The n x n matrix lam*J_n + phi*I_n, held as its three numbers.

    Its eigenvalues are phi (n-1 times) and phi + n*lam; .array builds the
    dense matrix only on request, so n is not limited by storage.
    """

    __slots__ = ()

    def __new__(cls, n: int, lam: float, phi: float):
        if n < 1:
            raise ValueError("n must be >= 1")
        return super().__new__(cls, n, lam, phi)

    @property
    def array(self):
        import numpy as np

        return np.full((self.n, self.n), self.lam) + self.phi * np.eye(self.n)

    def flat(self) -> list[float]:
        """The n*n entries of .array, row by row, with its bits, without numpy.

        An entry is lam + phi*e with e = 1.0 on the diagonal and 0.0 off it,
        as numpy computes it; so lam = -0.0 gives 0.0 off the diagonal.
        """
        n = self.n
        out = [self.lam + self.phi * 0.0] * (n * n)
        out[:: n + 1] = [self.lam + self.phi] * n
        return out


def validate_cs(n_set, lam: float, phi: float) -> None:
    """Exact positive-definiteness check of lam*J_n + phi*I_n over cluster sizes.

    V is PD iff phi > 0 and phi + n*lam > 0 (its two distinct eigenvalues),
    with strict inequalities; boundary points are rejected, and so is a
    cluster size below 1. Raises DomainError naming the first failure.
    """
    sizes = sorted(set(int(n) for n in n_set))
    if not sizes:
        raise ValueError("n_set must be nonempty")
    if sizes[0] < 1:
        raise DomainError(f"cluster size n = {sizes[0]} is not >= 1")
    if not phi > 0:
        raise DomainError(f"phi = {phi} is not strictly positive")
    for n in sizes:
        if not phi + n * lam > 0:
            raise DomainError(f"phi + n*lam = {phi + n * lam} <= 0 for cluster size n = {n}")


def icc(lam: float, phi: float) -> float:
    """Within-cluster correlation lam / (lam + phi) of the marginal model."""
    if not lam + phi > 0:
        raise DomainError(f"lam + phi = {lam + phi} must be strictly positive")
    return lam / (lam + phi)


def write_rows(dest, head: str, *columns) -> None:
    """Write head, then one line per row of the columns: every row output.

    dest is a path or an open text handle; a path is written as UTF-8 with
    "\n" line ends. Line i holds c1[i], c2[i], ... joined by "," and ended by
    "\n", each cell with the bytes of Python's %: %d for an integer or bool
    column, %.17g for a float column, %s for a str or object column. The
    lines are made in numpy by unobs_lab.rows, which is loaded only when there
    are columns, so a JSON report, written as head alone, loads neither it
    nor numpy.
    """
    lines = ()
    if columns:
        from unobs_lab.rows import lines as row_lines

        lines = row_lines(columns)
    if hasattr(dest, "write"):
        dest.write(head)
        for chunk in lines:
            dest.write(chunk.decode())
        return
    with open(dest, "wb") as fh:
        fh.write(head.encode())
        fh.writelines(lines)
