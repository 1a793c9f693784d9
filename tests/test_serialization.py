import json

import mpmath as mp
from mpmath import mpf

from xilab.matrix_model import build_potential, q_polynomial
from xilab.roots import find_roots
from xilab.scaling import cosh_couplings, double_scaling


def test_char_polynomial_json_roundtrip_preserves_precision():
    params = double_scaling(7, 16, cosh_couplings(7).s)
    q = q_polynomial(params, build_potential(params), 16)
    back = json.loads(json.dumps(q.as_dict()))
    assert back["N"] == 16
    for a, b in zip((mpf(c) for c in back["coeffs"]), q.coeffs):
        # decimal strings carry the working precision: far beyond float64
        assert abs(a - b) <= mpf(10) ** (-(mp.mp.dps - 5)) * max(1, abs(b))


def test_scaled_potential_json():
    doc = cosh_couplings(7).as_dict()
    assert doc["p"] == 7
    assert abs(float(doc["s"][0]) - 8.42573) < 1e-4
    assert len(doc["s"]) == 5


def test_rootset_json_fields():
    params = double_scaling(3, 4, ("1.5",))
    q = q_polynomial(params, build_potential(params), 4)
    rs = find_roots(q)
    doc = rs.as_dict()
    assert len(doc["roots"]) == 4
    for entry in doc["roots"]:
        assert set(entry) == {"re", "im", "is_real", "pair", "residual"}
    assert doc["on_critical_line"] in (True, False)
    assert doc["sweeps"] == rs.sweeps >= 1


def test_rootset_csv_shape():
    params = double_scaling(3, 4, ("1.5",))
    q = q_polynomial(params, build_potential(params), 4)
    rs = find_roots(q)
    lines = rs.to_csv().strip().splitlines()
    assert lines[0] == "re,im,is_real"
    assert len(lines) == 5
