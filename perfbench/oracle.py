"""Independent plane oracle and output checkers for the benchmark.

Uses numpy and math only and imports nothing from noisy_grover, so a
fault in the package cannot hide itself by also corrupting its reference.

The search never leaves the plane spanned by the target |w> and the
normalized rest |r> of the uniform state.  On the ordered basis {|w>, |r>}
the uniform state is s = (1/sqrt N, sqrt((N-1)/N)), the reflections are
I_s = 1 - 2 s s^T and I_w = diag(-1, 1), and the preconditioned noise is
the equal mixture of the sigma_y rotations R(psi - chi/2) and R(-chi/2),
R(a) = [[cos a, sin a], [-sin a, cos a]].  One step maps the 2x2 block
rho to 1/2 sum_i K_i rho K_i^T with K_i = V_i I_s V_i^T I_w.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Agreement required between a written value and the oracle.
ORACLE_ATOL = 1e-9

CSV_HEADER = (
    "chi,n,w,m,p_success,f_paper,f_closed,cos_gamma_sim,cos_gamma_closed,"
    "bloch_norm,entropy_nats,majorized_by_prev,majorized_by_init"
)
COLUMNS = CSV_HEADER.split(",")

class OracleMismatch(Exception):
    """An output file disagrees with the oracle or breaks a stated property."""


def magic_chi(k: int) -> float:
    """chi_k = pi sqrt(4 k^2 - 1/4), where the two rotations coincide."""
    return math.pi * math.sqrt(4.0 * k * k - 0.25)


def psi_of(chi: float) -> float:
    """psi in [0, pi/2] from [cos^2 mu + (chi^2/4) delta^2] cos^2 psi = cos^2 mu.

    With a = cos^2 mu and c = (chi^2/4) delta^2 the relation gives
    cos^2 psi = a / (a + c) and sin^2 psi = c / (a + c), so
    psi = atan2(sqrt c, sqrt a), which stays accurate where psi is near 0.
    """
    mu = math.sqrt(chi * chi / 4.0 + math.pi * math.pi / 16.0)
    delta = math.sin(mu) / mu
    a = math.cos(mu) ** 2
    c = chi * chi / 4.0 * delta * delta
    return math.atan2(math.sqrt(c), math.sqrt(a))


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, s], [-s, c]])


def plane_trajectory(n: int, chi: float, m_max: int) -> dict:
    """p_success, bloch_norm and entropy_nats for m = 0..m_max."""
    s = np.array([1.0 / math.sqrt(n), math.sqrt((n - 1.0) / n)])
    refl_s = np.eye(2) - 2.0 * np.outer(s, s)
    refl_w = np.diag([-1.0, 1.0])
    psi = psi_of(chi)
    ops = [
        v @ refl_s @ v.T @ refl_w
        for v in (_rotation(psi - chi / 2.0), _rotation(-chi / 2.0))
    ]
    rho = np.outer(s, s)
    p_success, bloch, entropy = [], [], []
    for step in range(m_max + 1):
        block = rho / (rho[0, 0] + rho[1, 1])
        norm = math.hypot(2.0 * block[0, 1], block[0, 0] - block[1, 1])
        p_success.append(float(rho[0, 0]))
        bloch.append(norm)
        entropy.append(_binary_entropy(norm))
        if step < m_max:
            rho = 0.5 * (ops[0] @ rho @ ops[0].T + ops[1] @ rho @ ops[1].T)
    return {"p_success": p_success, "bloch_norm": bloch, "entropy_nats": entropy}


def _binary_entropy(norm: float) -> float:
    """Entropy of the plane block: its eigenvalues are (1 +- |bloch|) / 2."""
    total = 0.0
    for lam in ((1.0 + norm) / 2.0, (1.0 - norm) / 2.0):
        if lam > 0.0:
            total -= lam * math.log(lam)
    return total


def _rows_from_csv(text: str) -> list:
    lines = text.split("\n")
    if lines[0] != CSV_HEADER:
        raise OracleMismatch(f"header {lines[0]!r} is not the exact schema")
    if lines[-1] != "":
        raise OracleMismatch("CSV does not end with a newline")
    rows = []
    for line in lines[1:-1]:
        fields = line.split(",")
        if len(fields) != len(COLUMNS):
            raise OracleMismatch(f"row has {len(fields)} fields: {line!r}")
        rows.append(dict(zip(COLUMNS, fields)))
    return rows


def _rows_from_json(text: str) -> list:
    payload = json.loads(text)
    if payload.get("discrepancies") != []:
        raise OracleMismatch("trajectory JSON carries discrepancies")
    rows = payload["rows"]
    for row in rows:
        if list(row) != COLUMNS:
            raise OracleMismatch(f"JSON row keys {list(row)} are not the schema")
    return rows


def _as_flag(value) -> bool:
    return value is True or value == "true"


def check_trajectory_file(text: str, fmt: str, cells: list, m_max: int, w: int) -> int:
    """Check a search or sweep output against the oracle; return its row count.

    cells lists the (chi, n) pairs in the order the command was given them
    (chi-major).  Every row must carry its cell and step, agree with the
    oracle in p_success, bloch_norm and entropy_nats within ORACLE_ATOL,
    and carry both majorization flags true.
    """
    rows = _rows_from_csv(text) if fmt == "csv" else _rows_from_json(text)
    per_cell = m_max + 1
    if len(rows) != len(cells) * per_cell:
        raise OracleMismatch(
            f"{len(rows)} rows, expected {len(cells)} cells x {per_cell} steps"
        )
    for index, (chi, n) in enumerate(cells):
        expect = plane_trajectory(n, chi, m_max)
        for m in range(per_cell):
            row = rows[index * per_cell + m]
            where = f"chi={chi!r} n={n} m={m}"
            if (float(row["chi"]), int(row["n"]), int(row["w"]), int(row["m"])) != (
                chi, n, w, m,
            ):
                raise OracleMismatch(f"{where}: row labelled {row}")
            for key in ("p_success", "bloch_norm", "entropy_nats"):
                gap = abs(float(row[key]) - expect[key][m])
                if not gap <= ORACLE_ATOL:
                    raise OracleMismatch(f"{where}: {key} off the oracle by {gap:.3e}")
            if not (_as_flag(row["majorized_by_prev"]) and _as_flag(row["majorized_by_init"])):
                raise OracleMismatch(f"{where}: majorization flag false")
    return len(rows)
