"""Linear calibration of polynomial roots onto reference zeros and reports.

The two lowest real roots are anchored onto the first two reference zeros
(z = A b + c, ascending roots onto ascending zeros); the remaining mapped
roots estimate the higher zeros. The quadratic-model row instead uses the
fixed affine map y = -8 * 2^{1/6} (sqrt(2) - b) applied to the largest
roots, whose zero tables descend.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import mpmath as mp
from mpmath import mpf

from .baker_akhiezer import ReferenceZeros
from .errors import ComplexAnchor, DegenerateFit
from .precision import pretty, to_decimal


@dataclass(frozen=True)
class Calibration:
    A: mpf
    c: mpf
    anchor_indices: tuple
    reference_id: str

    def apply(self, b):
        return self.A * b + self.c


def fit_linear(real_roots, ref: ReferenceZeros, which=(0, 1)) -> Calibration:
    """Fit z = A b + c through two (root, reference-zero) anchor pairs.

    real_roots: ascending real root list (complex roots excluded upstream);
    reference zeros are taken in their published (first, second, ...) order.
    """
    i, j = which
    b1, b2 = real_roots[i], real_roots[j]
    for b in (b1, b2):
        if isinstance(b, mp.mpc) and mp.im(b) != 0:
            raise ComplexAnchor(f"anchor root {b} is not real")
    if b1 == b2:
        raise DegenerateFit("anchor roots coincide")
    z1, z2 = mpf(str(ref.zeros[i])), mpf(str(ref.zeros[j]))
    A = (z2 - z1) / (mpf(b2) - mpf(b1))
    c = z1 - A * mpf(b1)
    return Calibration(A=A, c=c, anchor_indices=(i, j), reference_id=ref.function_id)


def estimate_zeros(cal: Calibration, real_roots, count: int | None = None) -> list:
    """z_i = A b_i + c over the ascending real roots."""
    out = [cal.apply(mpf(b)) for b in real_roots]
    return out[:count] if count is not None else out


def airy_fixed_map():
    """The explicit quadratic-model calibration y = -8 * 2^{1/6} (sqrt(2) - b)."""
    A = 8 * mpf(2) ** (mpf(1) / 6)
    return Calibration(A=A, c=-A * mp.sqrt(2), anchor_indices=(), reference_id="airy")


@dataclass(frozen=True)
class TableRow:
    function_id: str
    label: str
    u_description: str
    z3_estimated: mpf
    z3_exact: mpf
    on_critical_line: bool
    n_complex_pairs: int
    A: mpf
    c: mpf
    estimated_zeros: tuple = ()
    reference_zeros: tuple = ()

    def to_dict(self) -> dict:
        return {
            "function": self.function_id,
            "label": self.label,
            "U": self.u_description,
            "z3_estimated": to_decimal(self.z3_estimated),
            "z3_exact": to_decimal(self.z3_exact),
            "on_critical_line": self.on_critical_line,
            "n_complex_pairs": self.n_complex_pairs,
            "A": to_decimal(self.A),
            "c": to_decimal(self.c),
            "estimated_zeros": [to_decimal(z) for z in self.estimated_zeros],
            "reference_zeros": [to_decimal(z) for z in self.reference_zeros],
        }


@dataclass(frozen=True)
class ZeroReport:
    rows: tuple
    N: int
    precision: int

    def to_json(self) -> str:
        return json.dumps({"N": self.N, "precision": self.precision,
                           "rows": [r.to_dict() for r in self.rows]}, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["function", "z3_estimated", "z3_exact", "on_critical_line",
                    "n_complex_pairs", "A", "c"])
        for r in self.rows:
            w.writerow([r.function_id, mp.nstr(r.z3_estimated, 8),
                        mp.nstr(r.z3_exact, 8), "Y" if r.on_critical_line else "N",
                        r.n_complex_pairs, mp.nstr(r.A, 8), mp.nstr(r.c, 8)])
        return buf.getvalue()

    def to_text(self) -> str:
        head = ["function", "U(x)", "z3 (N={})".format(self.N), "z3 exact",
                "on CL", "pairs", "A", "c"]
        body = [[r.label, r.u_description, pretty(r.z3_estimated),
                 pretty(r.z3_exact), "Y" if r.on_critical_line else "N",
                 str(r.n_complex_pairs), pretty(r.A), pretty(r.c)]
                for r in self.rows]
        widths = [max(len(h), *(len(row[i]) for row in body))
                  for i, h in enumerate(head)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(head, widths))]
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

