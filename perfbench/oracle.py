"""Independent checks of the CLI's outputs.

A cone row passes when
  * t_nk agrees with a 40-digit mpmath root of 2F1((n-1)/2, -1/2; k/2; s)
    (precomputed into t_oracle.json by `python3 perfbench/oracle.py`);
  * lambda1 and gamma_plus agree with the embedded reference table for
    n <= 12, within its own tolerances, skipping its flagged cells (the
    reference t column is not used: its known defects belong to the test
    suite, not to this oracle);
  * the paper's ranges hold: lambda1 > 8 - 2n, gamma_minus in (2-n, 4-n),
    gamma_plus in (-2, 0);
  * gamma_minus and gamma_plus solve the indicial equation
    gamma (gamma + n - 2) = lambda1.
The finite-difference eigenvalue oracle is not used: it stops converging
for k near n.

A verify record passes when it is present and has passed = true.
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
T_ORACLE_PATH = HERE / "t_oracle.json"
VERIFY_RECORDS_PATH = HERE / "verify_records.json"

T_TOL = 1e-10            # |t_nk - t_oracle|, as the acceptance suite's closed-form roots
IDENTITY_TOL = 1e-9      # relative residual of the indicial identity
N_RANGE = (7, 40)        # cones covered by t_oracle.json
ROW_KEYS = ("n", "k", "t_nk", "lambda1", "gamma_plus", "gamma_minus")

Cell = Tuple[int, int]


def mp_root_t(n: int, k: int) -> float:
    """t_{n,k} from 40-digit arithmetic: bisection on [0, 2k/(n-1)] (the
    profile's quadratic truncation is an upper bound, since every series
    term beyond the first two is negative), then Newton from the right,
    which converges monotonically for this concave decreasing profile.
    zeroprec keeps mpmath from giving up on the cancellation at the root."""
    import mpmath
    from mpmath import mpf

    with mpmath.workdps(40):
        a, b, c = mpf(n - 1) / 2, mpf(-1) / 2, mpf(k) / 2

        def f(s):
            return mpmath.hyp2f1(a, b, c, s, zeroprec=2000)

        def fp(s):
            return a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, s)

        lo, hi = mpf(0), min(mpf(2 * k) / (n - 1), 1 - mpf(10) ** -9)
        while hi - lo > mpf(10) ** -2:
            mid = (lo + hi) / 2
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        s = hi
        for _ in range(60):
            step = f(s) / fp(s)
            s -= step
            if abs(step) < mpf(10) ** -20:
                break
        eps = mpf(10) ** -15
        if not (lo <= s <= hi and f(s - eps) > 0 > f(s + eps)):
            raise ArithmeticError(f"mpmath root not bracketed for (n,k)=({n},{k})")
        return float(mpmath.sqrt(s))


def load_t_oracle() -> Dict[Cell, float]:
    raw = json.loads(T_ORACLE_PATH.read_text())
    return {(int(n), int(k)): t for n, k, t in raw}


def load_reference(root: Path) -> Tuple[Dict[Cell, Tuple[float, float]], float, float]:
    """(n, k) -> (ref -lambda1, ref -gamma_plus), NaN where flagged, read
    from the program's embedded reference module without importing the
    package."""
    spec = importlib.util.spec_from_file_location(
        "_bench_reference", root / "src" / "conelab" / "reference.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    out = {}
    for n, k, _t, nl, ng in mod.reference_rows():
        out[(n, k)] = (math.nan if ("neg_lambda1", n, k) in mod.FLAGGED_ENTRIES else nl,
                       math.nan if ("neg_gamma_plus", n, k) in mod.FLAGGED_ENTRIES else ng)
    return out, mod.TOL_LAMBDA, mod.TOL_GAMMA


class Oracle:
    def __init__(self, root: Path):
        self.t_star = load_t_oracle()
        self.reference, self.tol_lambda, self.tol_gamma = load_reference(root)
        self.verify_names: List[str] = json.loads(VERIFY_RECORDS_PATH.read_text())

    def cone_row_problems(self, row, cell: Cell) -> List[str]:
        n, k = cell
        if not isinstance(row, dict) or any(key not in row for key in ROW_KEYS):
            return [f"{cell}: malformed row"]
        vals = [row[key] for key in ROW_KEYS[2:]]
        if (row["n"], row["k"]) != cell or not all(
                isinstance(v, (int, float)) and math.isfinite(v) for v in vals):
            return [f"{cell}: wrong cell or non-finite value"]
        t, lam, gp, gm = vals
        out = []
        if abs(t - self.t_star[cell]) > T_TOL:
            out.append(f"{cell}: t_nk {t!r} vs oracle {self.t_star[cell]!r}")
        if not lam > 8.0 - 2.0 * n:
            out.append(f"{cell}: lambda1 {lam} not above 8-2n")
        if not 2.0 - n < gm < 4.0 - n:
            out.append(f"{cell}: gamma_minus {gm} outside (2-n, 4-n)")
        if not -2.0 < gp < 0.0:
            out.append(f"{cell}: gamma_plus {gp} outside (-2, 0)")
        scale = max(1.0, abs(lam))
        if (abs(gm * (gm + n - 2.0) - lam) > IDENTITY_TOL * scale
                or abs(gp * (gp + n - 2.0) - lam) > IDENTITY_TOL * scale):
            out.append(f"{cell}: indicial identity fails for lambda1 {lam}")
        ref = self.reference.get(cell)
        if ref is not None:
            nl, ng = ref
            if abs(-lam - nl) > self.tol_lambda:  # False when flagged (NaN)
                out.append(f"{cell}: lambda1 {lam} vs reference {-nl}")
            if abs(-gp - ng) > self.tol_gamma:
                out.append(f"{cell}: gamma_plus {gp} vs reference {-ng}")
        return out

    def check_cones(self, stdout: bytes, exit_code: int,
                    cells: Sequence[Cell]) -> Tuple[int, int, List[str]]:
        """(attempted, failed, problems) for one table/analyze invocation
        expected to print one row per cell."""
        if exit_code != 0:
            return len(cells), len(cells), [f"exit code {exit_code} for cells {list(cells)}"]
        rows = _json_rows(stdout)
        if rows is None:
            return len(cells), len(cells), ["unparsable JSON output"]
        by_cell = {}
        for row in rows:
            if isinstance(row, dict):
                by_cell[(row.get("n"), row.get("k"))] = row
        failed, problems = 0, []
        for cell in cells:
            row = by_cell.get(cell)
            found = [f"{cell}: missing row"] if row is None else \
                self.cone_row_problems(row, cell)
            failed += bool(found)
            problems += found
        return len(cells), failed, problems

    def check_verify(self, stdout: bytes, exit_code: int) -> Tuple[int, int, List[str]]:
        """(attempted, failed, problems) for one `verify --suite all` run."""
        rows = _json_rows(stdout) or []
        got = {r["name"]: r for r in rows
               if isinstance(r, dict) and isinstance(r.get("name"), str)}
        names = list(self.verify_names) + sorted(set(got) - set(self.verify_names))
        if exit_code != 0:
            return len(names), len(names), [f"exit code {exit_code}"]
        problems = [f"record {name}: {'missing' if name not in got else 'not passed'}"
                    for name in names if got.get(name, {}).get("passed") is not True]
        return len(names), len(problems), problems


def _json_rows(stdout: bytes) -> Optional[list]:
    try:
        payload = json.loads(stdout)
    except ValueError:
        return None
    rows = payload.get("rows") if isinstance(payload, dict) else None
    return rows if isinstance(rows, list) else None


def main() -> int:
    """Regenerate t_oracle.json for every cone with 7 <= n <= 40."""
    cells = [(n, k) for n in range(N_RANGE[0], N_RANGE[1] + 1) for k in range(1, n - 1)]
    rows = []
    for i, (n, k) in enumerate(cells):
        rows.append([n, k, mp_root_t(n, k)])
        if i % 50 == 0:
            print(f"{i}/{len(cells)}", file=sys.stderr, flush=True)
    T_ORACLE_PATH.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
