"""The eleven irregular benchmarks (index-array based access patterns).

Each program couples at least one indirect nest (neighbor-list gather,
sparse-matrix column walk, scatter update, tree/visibility-list walk) with
the benchmark's characteristic clustering, produced by the generators in
:mod:`repro.workloads.base`.  All run under an outer timing loop: trip one
is inspected at run time, the rest execute the derived schedule
(Section 4's inspector-executor paradigm).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.ir.arrays import declare
from repro.ir.builder import nest_builder
from repro.ir.loops import Program
from repro.ir.refs import gather, scatter
from repro.ir.symbolic import Idx, Param

from .base import (
    Workload,
    banded_columns,
    bucketed_keys,
    clustered_indices,
    row_pointers,
)

I, J = Idx("i"), Idx("j")
IRREGULAR_TRIPS = 3


def make_nbf() -> Workload:
    """Non-bonded force kernel (MD): pair-list gather + force scatter."""
    P, A = Param("P"), Param("A")
    Pos = declare("POS", A, elem_bytes=128)
    Force = declare("FORCE", A, elem_bytes=128)
    Ebuf = declare("EBUF", P, elem_bytes=32)
    Idx1 = declare("IDX1", P, elem_bytes=8)
    Idx2 = declare("IDX2", P, elem_bytes=8)
    # Pair energies land in a privatized per-pair buffer (the standard
    # parallel-MD reduction structure); forces are gathered read-only.
    forces = (
        nest_builder("nbf.forces")
        .loop("i", 0, P)
        .accesses(
            gather(Pos, Idx1, I),
            gather(Pos, Idx2, I),
            gather(Force, Idx1, I),
        )
        .writes(Ebuf(I))
        .compute(5)
        .build()
    )

    def idx1(params: Mapping[str, int], rng: np.random.Generator):
        return clustered_indices(params["P"], params["A"], 12, rng, revisit=0.35)

    def idx2(params: Mapping[str, int], rng: np.random.Generator):
        return clustered_indices(params["P"], params["A"], 24, rng, revisit=0.2)

    return Workload(
        name="nbf",
        program=Program(
            "nbf",
            (forces,),
            default_params={"P": 11000, "A": 8192},
            index_array_builders={"IDX1": idx1, "IDX2": idx2},
        ),
        regular=False,
        trips=IRREGULAR_TRIPS,
        description="non-bonded force computation (MD)",
    )


def make_moldyn() -> Workload:
    """Molecular dynamics: neighbor-list forces + regular position update."""
    P, A = Param("P"), Param("A")
    Pos = declare("POS", A, elem_bytes=128)
    Vel = declare("VEL", A, elem_bytes=128)
    Force = declare("FORCE", A, elem_bytes=128)
    Fbuf = declare("FBUF", P, elem_bytes=32)
    Nbr = declare("NBR", P, elem_bytes=8)
    forces = (
        nest_builder("moldyn.forces")
        .loop("i", 0, P)
        .accesses(
            gather(Pos, Nbr, I),
            gather(Force, Nbr, I),
        )
        .writes(Fbuf(I))
        .compute(6)
        .build()
    )
    update = (
        nest_builder("moldyn.update")
        .loop("i", 0, A)
        .reads(Force(I), Vel(I))
        .writes(Pos(I))
        .compute(6)
        .build()
    )

    def nbr(params: Mapping[str, int], rng: np.random.Generator):
        return clustered_indices(params["P"], params["A"], 16, rng, revisit=0.4)

    return Workload(
        name="moldyn",
        program=Program(
            "moldyn",
            (forces, update),
            default_params={"P": 12000, "A": 8000},
            index_array_builders={"NBR": nbr},
        ),
        regular=False,
        trips=IRREGULAR_TRIPS,
        description="molecular dynamics with neighbor lists",
    )


def make_equake() -> Workload:
    """Earthquake simulation: banded sparse matrix-vector product."""
    R, NZ = Param("R"), Param("NZ")
    Val = declare("VAL", NZ, elem_bytes=32)
    X = declare("X", R, elem_bytes=64)
    Y = declare("Y", R, elem_bytes=64)
    Col = declare("COL", NZ, elem_bytes=8)
    Row = declare("ROW", NZ, elem_bytes=8)
    spmv = (
        nest_builder("equake.spmv")
        .loop("i", 0, NZ)
        .reads(Val(I))
        .accesses(
            gather(X, Col, I),
            scatter(Y, Row, I),
        )
        .compute(5)
        .build()
    )
    nnz_per_row = 4

    def col(params: Mapping[str, int], rng: np.random.Generator):
        rows = params["R"]
        return banded_columns(rows, nnz_per_row, 24, rows, rng)

    def row(params: Mapping[str, int], rng: np.random.Generator):
        return row_pointers(params["R"], nnz_per_row)

    return Workload(
        name="equake",
        program=Program(
            "equake",
            (spmv,),
            default_params={"R": 4000, "NZ": 4000 * nnz_per_row},
            index_array_builders={"COL": col, "ROW": row},
        ),
        regular=False,
        trips=IRREGULAR_TRIPS,
        description="seismic wave propagation (SPEC OMP)",
    )


def make_hpccg() -> Workload:
    """Conjugate gradient: 27-ish-point sparse MV + regular axpy."""
    R, NZ = Param("R"), Param("NZ")
    Val = declare("VAL", NZ, elem_bytes=32)
    Xv = declare("X", R, elem_bytes=64)
    Yv = declare("Y", R, elem_bytes=64)
    Pv = declare("PVEC", R, elem_bytes=64)
    Col = declare("COL", NZ, elem_bytes=8)
    Row = declare("ROW", NZ, elem_bytes=8)
    nnz_per_row = 5
    spmv = (
        nest_builder("hpccg.spmv")
        .loop("i", 0, NZ)
        .reads(Val(I))
        .accesses(gather(Xv, Col, I), scatter(Yv, Row, I))
        .compute(5)
        .build()
    )
    axpy = (
        nest_builder("hpccg.axpy")
        .loop("i", 0, R)
        .reads(Yv(I), Pv(I))
        .writes(Xv(I))
        .compute(6)
        .build()
    )

    def col(params: Mapping[str, int], rng: np.random.Generator):
        rows = params["R"]
        return banded_columns(rows, nnz_per_row, 32, rows, rng)

    def row(params: Mapping[str, int], rng: np.random.Generator):
        return row_pointers(params["R"], nnz_per_row)

    return Workload(
        name="hpccg",
        program=Program(
            "hpccg",
            (spmv, axpy),
            default_params={"R": 3200, "NZ": 3200 * nnz_per_row},
            index_array_builders={"COL": col, "ROW": row},
        ),
        regular=False,
        trips=IRREGULAR_TRIPS,
        description="simple conjugate gradient (Mantevo)",
    )


def make_radix() -> Workload:
    """Radix sort pass: bucketed histogram + permutation scatter."""
    Nk, Bk = Param("NKEYS"), Param("NBUCKETS")
    In = declare("INPUT", Nk, elem_bytes=64)
    Out = declare("OUTPUT", Nk, elem_bytes=64)
    Hist = declare("HIST", Bk, elem_bytes=32)
    Keys = declare("KEYS", Nk, elem_bytes=8)
    Pos = declare("POSN", Nk, elem_bytes=8)
    histogram = (
        nest_builder("radix.histogram")
        .loop("i", 0, Nk)
        .reads(In(I))
        .accesses(scatter(Hist, Keys, I))
        .compute(5)
        .build()
    )
    permute = (
        nest_builder("radix.permute")
        .loop("i", 0, Nk)
        .reads(In(I))
        .accesses(scatter(Out, Pos, I))
        .compute(5)
        .build()
    )

    def keys(params: Mapping[str, int], rng: np.random.Generator):
        return bucketed_keys(
            params["NKEYS"], params["NBUCKETS"], params["NBUCKETS"], rng
        )

    def pos(params: Mapping[str, int], rng: np.random.Generator):
        return bucketed_keys(
            params["NKEYS"], params["NBUCKETS"], params["NKEYS"], rng
        )

    return Workload(
        name="radix",
        program=Program(
            "radix",
            (histogram, permute),
            default_params={"NKEYS": 16000, "NBUCKETS": 512},
            index_array_builders={"KEYS": keys, "POSN": pos},
        ),
        regular=False,
        trips=IRREGULAR_TRIPS,
        description="radix sort (SPLASH-2 kernel)",
    )


def _walk_workload(
    name: str,
    description: str,
    bodies: int,
    cells: int,
    fanout: int,
    radius: int,
    revisit: float,
    body_elem: int = 64,
    cell_elem: int = 128,
    compute: int = 20,
) -> Workload:
    """Shared shape of the tree/list-walk SPLASH-2 codes.

    ``bodies`` iterate; each visits ``fanout`` indexed cells drawn from a
    drifting cluster (tree walks of nearby bodies overlap heavily).
    """
    Bn, Cn = Param("B"), Param("C")
    Body = declare("BODY", Bn, elem_bytes=body_elem)
    Cell = declare("CELL", Cn, elem_bytes=cell_elem)
    Acc = declare("ACCUM", Bn, elem_bytes=body_elem)
    Walk = declare("WALK", Bn * fanout, elem_bytes=8)
    nest = (
        nest_builder(f"{name}.walk")
        .loop("i", 0, Bn)
        .loop("j", 0, fanout)
        .reads(Body(I))
        .accesses(gather(Cell, Walk, I * fanout + J))
        .writes(Acc(I))
        .compute(compute)
        .build()
    )

    def walk(params: Mapping[str, int], rng: np.random.Generator):
        return clustered_indices(
            params["B"] * fanout, params["C"], radius, rng, revisit=revisit
        )

    return Workload(
        name=name,
        program=Program(
            name,
            (nest,),
            default_params={"B": bodies, "C": cells},
            index_array_builders={"WALK": walk},
        ),
        regular=False,
        trips=IRREGULAR_TRIPS,
        description=description,
    )


def make_barnes() -> Workload:
    return _walk_workload(
        "barnes", "Barnes-Hut N-body tree walk (SPLASH-2)",
        bodies=3000, cells=8192, fanout=4, radius=8, revisit=0.35,
    )


def make_fmm() -> Workload:
    return _walk_workload(
        "fmm", "fast multipole method interaction lists (SPLASH-2)",
        bodies=2800, cells=6144, fanout=4, radius=20, revisit=0.25,
    )


def make_radiosity() -> Workload:
    return _walk_workload(
        "radiosity", "hierarchical radiosity visibility walk (SPLASH-2)",
        bodies=3200, cells=7168, fanout=3, radius=14, revisit=0.3,
        compute=18,
    )


def make_raytrace() -> Workload:
    return _walk_workload(
        "raytrace", "ray tracing octree traversal (SPLASH-2)",
        bodies=3600, cells=9216, fanout=3, radius=8, revisit=0.45,
        compute=16,
    )


def make_volrend() -> Workload:
    """Volume rendering: ray marching with a hot opacity table."""
    Rn, Vn = Param("RAYS"), Param("VOX")
    steps = 3
    Vol = declare("VOLUME", Vn, elem_bytes=64)
    Opa = declare("OPACITY", 256, elem_bytes=32)
    Img = declare("IMAGE", Rn, elem_bytes=32)
    Vidx = declare("VIDX", Rn * steps, elem_bytes=8)
    Oidx = declare("OIDX", Rn * steps, elem_bytes=8)
    march = (
        nest_builder("volrend.march")
        .loop("i", 0, Rn)
        .loop("j", 0, steps)
        .accesses(
            gather(Vol, Vidx, I * steps + J),
            gather(Opa, Oidx, I * steps + J),
        )
        .writes(Img(I))
        .compute(6)
        .build()
    )

    def vidx(params: Mapping[str, int], rng: np.random.Generator):
        return clustered_indices(
            params["RAYS"] * steps, params["VOX"], 10, rng, revisit=0.3
        )

    def oidx(params: Mapping[str, int], rng: np.random.Generator):
        return rng.integers(0, 256, size=params["RAYS"] * steps)

    return Workload(
        name="volrend",
        program=Program(
            "volrend",
            (march,),
            default_params={"RAYS": 3600, "VOX": 16384},
            index_array_builders={"VIDX": vidx, "OIDX": oidx},
        ),
        regular=False,
        trips=IRREGULAR_TRIPS,
        description="volume rendering (SPLASH-2)",
    )


def make_water() -> Workload:
    """Water simulation: regular intra-molecule pass + pair interactions."""
    Mn, Pn = Param("MOL"), Param("PAIRS")
    Mol = declare("MOLS", Mn, elem_bytes=128)
    Eng = declare("ENG", Mn, elem_bytes=32)
    Wbuf = declare("WBUF", Pn, elem_bytes=32)
    Pair = declare("PAIR", Pn, elem_bytes=8)
    intra = (
        nest_builder("water.intra")
        .loop("i", 0, Mn)
        .reads(Mol(I))
        .writes(Eng(I))
        .compute(6)
        .build()
    )
    inter = (
        nest_builder("water.inter")
        .loop("i", 0, Pn)
        .accesses(
            gather(Mol, Pair, I),
            gather(Eng, Pair, I),
        )
        .writes(Wbuf(I))
        .compute(6)
        .build()
    )

    def pair(params: Mapping[str, int], rng: np.random.Generator):
        return clustered_indices(
            params["PAIRS"], params["MOL"], 20, rng, revisit=0.3
        )

    return Workload(
        name="water",
        program=Program(
            "water",
            (intra, inter),
            default_params={"MOL": 6000, "PAIRS": 10000},
            index_array_builders={"PAIR": pair},
        ),
        regular=False,
        trips=IRREGULAR_TRIPS,
        description="water molecule simulation (SPLASH-2)",
    )


IRREGULAR_FACTORIES = {
    "barnes": make_barnes,
    "fmm": make_fmm,
    "radiosity": make_radiosity,
    "raytrace": make_raytrace,
    "volrend": make_volrend,
    "water": make_water,
    "radix": make_radix,
    "nbf": make_nbf,
    "hpccg": make_hpccg,
    "equake": make_equake,
    "moldyn": make_moldyn,
}
