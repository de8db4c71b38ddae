"""Embedded reference table for the n = 7..12 cone family.

Columns are (k, t, -lambda1, -gamma_plus) per n.  Three entries carry a
suspected-typo flag: t(9,6) conflicts with the exact closed form
sqrt(6/7) of the k = n-3 family, t(12,3) breaks cross-row monotonicity,
and gamma_plus(10,8) is inconsistent with its own lambda1.  Flagged
entries are compared informationally, never fatally.

Recomputation (cross-checked against 40-digit arithmetic) shows the
printed t column deviates beyond its rounding width on five further
unflagged cells, (8,3), (8,4), (9,3), (9,4) and (9,5); the comparison
command surfaces them as ordinary mismatches.
"""

from typing import Dict, List, Tuple

# n -> [(k, t, neg_lambda1, neg_gamma_plus)]
TABLE1: Dict[int, List[Tuple[int, float, float, float]]] = {
    7: [(1, 0.52, 5.698, 1.757), (2, 0.69, 5.639, 1.718),
        (3, 0.81, 5.607, 1.698), (4, 0.89, 5.581, 1.682),
        (5, 0.96, 5.551, 1.664)],
    8: [(1, 0.48, 6.699, 1.483), (2, 0.65, 6.642, 1.464),
        (3, 0.78, 6.613, 1.455), (4, 0.87, 6.591, 1.448),
        (5, 0.91, 6.571, 1.441), (6, 0.97, 6.544, 1.433)],
    9: [(1, 0.45, 7.701, 1.367), (2, 0.61, 7.645, 1.354),
        (3, 0.75, 7.618, 1.348), (4, 0.84, 7.599, 1.343),
        (5, 0.89, 7.582, 1.339), (6, 0.94, 7.564, 1.335),
        (7, 0.98, 7.540, 1.330)],
    10: [(1, 0.43, 8.702, 1.298), (2, 0.57, 8.647, 1.288),
         (3, 0.68, 8.621, 1.283), (4, 0.76, 8.604, 1.280),
         (5, 0.83, 8.589, 1.278), (6, 0.89, 8.575, 1.275),
         (7, 0.94, 8.559, 1.272), (8, 0.98, 8.536, 1.228)],
    11: [(1, 0.41, 9.702, 1.252), (2, 0.55, 9.649, 1.244),
         (3, 0.65, 9.624, 1.240), (4, 0.72, 9.607, 1.238),
         (5, 0.79, 9.594, 1.236), (6, 0.85, 9.582, 1.234),
         (7, 0.90, 9.570, 1.232), (8, 0.94, 9.555, 1.230),
         (9, 0.98, 9.533, 1.226)],
    12: [(1, 0.38, 10.703, 1.219), (2, 0.53, 10.650, 1.212),
         (3, 0.67, 10.626, 1.209), (4, 0.69, 10.610, 1.207),
         (5, 0.76, 10.598, 1.205), (6, 0.82, 10.587, 1.204),
         (7, 0.87, 10.577, 1.202), (8, 0.91, 10.566, 1.201),
         (9, 0.95, 10.552, 1.199), (10, 0.98, 10.531, 1.196)],
}

# (column, n, k): column in {"t", "neg_lambda1", "neg_gamma_plus"}
FLAGGED_ENTRIES = frozenset({
    ("t", 9, 6),
    ("t", 12, 3),
    ("neg_gamma_plus", 10, 8),
})

TOL_T = 0.01
TOL_LAMBDA = 0.005
TOL_GAMMA = 0.005


def reference_rows() -> List[Tuple[int, int, float, float, float]]:
    """Flat (n, k, t, -lambda1, -gamma_plus) rows in (n, k) order."""
    out = []
    for n in sorted(TABLE1):
        for (k, t, nl, ng) in TABLE1[n]:
            out.append((n, k, t, nl, ng))
    return out
