"""Exact linear algebra over the rationals, the reference that the
library's fraction-free integer elimination is checked against."""

from fractions import Fraction


def fraction_inverse(m):
    """Exact inverse of an invertible integer matrix by Gauss-Jordan
    elimination over ``Fraction``."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)
