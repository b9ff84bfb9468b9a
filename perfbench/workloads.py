"""The two workloads: one round of CLI commands each, drawn from the seed.

A run repeats its round, unchanged, until its time is up, so the share of
failed operations is the same in every run.  Each round ends by rerunning
its first command, whose file must come out byte-identical.

Commands are kept short (about 0.05-0.5 s) and rounds last 1-4 s, so each
command runs many times in a run, also in the host's fast phases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from oracle import magic_chi

# N -> m, all on the dense branch (N <= 256).  A step costs about N^3, so m
# shrinks with N to give every command a similar wall time.
DENSE_STEPS = {64: 60, 128: 20, 256: 2}
DENSE_CHIS = (0.5, magic_chi(1), 5.0)
PLANE_SIZES = (300, 400)              # on the plane branch (N > 256), cache-sized
PLANE_M = 200
HUGE_N = 2**20                        # a dense N x N complex array is 16 TiB
HUGE_M = 10
CHI_RANGE = (0.0, 12.0)               # contains the first magic strength chi_1 ~ 6.08


@dataclass(frozen=True)
class Op:
    """One CLI command; the benchmark appends --out FILE."""

    argv: tuple
    fmt: str = "csv"
    cells: tuple = ()   # (chi, n) in the command's chi-major order
    m: int = 0
    w: int = 0
    rerun_of: int | None = None   # index of the op whose file this one must equal

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _trajectory(command: str, chis, sizes, m: int, w: int = 0, fmt: str = "csv") -> Op:
    argv = [command, "--chi", *map(repr, chis), "--n", *map(str, sizes), "--m", str(m)]
    if w:
        argv += ["--target", str(w)]
    if fmt != "csv":
        argv += ["--format", fmt]
    cells = tuple((chi, n) for chi in chis for n in sizes)
    return Op(tuple(argv), fmt, cells, m, w)


def _chis(rng: random.Random, count: int) -> list:
    return [rng.uniform(*CHI_RANGE) for _ in range(count)]


def search_dense(rng: random.Random) -> list:
    return [
        _trajectory("search", [chi], [n], m, w=rng.randrange(n))
        for n, m in DENSE_STEPS.items()
        for chi in DENSE_CHIS
    ]


def sweep_plane(rng: random.Random) -> list:
    return [
        # the last sweep writes JSON, so both emitters run
        *(_trajectory("sweep", [chi], PLANE_SIZES, PLANE_M, fmt="json" if k == 3 else "csv")
          for k, chi in enumerate(_chis(rng, 4))),
        # fails today on the dense build inside the plane branch; fixed inputs
        _trajectory("search", [1.0], [HUGE_N], HUGE_M),
    ]


WORKLOADS = {
    "search_dense": search_dense,
    "sweep_plane": sweep_plane,
}


def make_round(name: str, seed: int) -> list:
    ops = WORKLOADS[name](random.Random(seed))
    return ops + [replace(ops[0], rerun_of=0)]
