"""Cocycle representatives, pinned byte for byte.

The representatives are read off the canonical RREF of the kernel, so they
must not depend on how the differentials are assembled or eliminated. Long
ones are pinned as the sha256 digest of their compact JSON.
"""

import hashlib
import json

import pytest

from formalitykit.configurations import ConfigGraph
from formalitykit.fields import RATIONALS_SPEC, FieldSpec
from formalitykit.graded import GradedAlgebra, build_configuration_algebra, truncated_poly
from formalitykit.hochschild import hh_bar

F7 = FieldSpec(kind="fp", p=7)
F32003 = FieldSpec(kind="fp", p=32003)


def digest(cocycles) -> str:
    return hashlib.sha256(json.dumps(cocycles, separators=(",", ":")).encode()).hexdigest()


def a2_121(preset):
    return build_configuration_algebra(ConfigGraph.make([1, 2], [(1, 2)]), 1, 2, 1, preset, F7)


# (n, p, q) -> digest: the `hh --cocycles` slices of truncated_poly(n, 1)
# over Q that the hh-slices-q benchmark workload runs; each has dim 1
TRUNCATED_POLY = {
    (3, 3, -4): "316aec0af49691861f18fb7917a2174d1c5217dbd8462982bd6fad97b31cb59c",
    (3, 4, -8): "97efb25a5aa3b23a40af55c8923781884bcc34bfac858d7cfdf99383e3ad7c9a",
    (4, 3, -5): "ad6a311434511b21b3030545d0b5c54712fa9723ee3812f14c988dbe763fd618",
    (4, 3, -3): "d51d74e10fe1b60236ad6ef19cfd58eb976f654e4bc3db056c9b0a6968e0b902",
    (5, 3, -3): "614fef5aca45d6b4db0e68e32ebdda1040ac459b4a886c12939bdbcfa04424cc",
    (5, 3, -2): "ddbc8998d4348cd23f3158304cf451b0d3da2cbd64433cb9a46b6bd18cb375be",
}


@pytest.mark.parametrize("npq", sorted(TRUNCATED_POLY))
def test_truncated_poly_cocycles_are_pinned(npq):
    n, p, q = npq
    res = hh_bar(truncated_poly(n, 1), p, q, want_cocycles=True)
    assert res.dim == len(res.cocycles) == 1
    assert digest(res.cocycles) == TRUNCATED_POLY[npq]


# (field, p, q) -> (slice dims, digest) of k[t]/t^7 = truncated_poly(6, 1):
# dimension-1 slices whose d_p has several times more rows (one per cochain
# of C^(p+1)) than columns, so the class is read off the kept coboundaries of
# C^p
DEEP_TRUNCATED_POLY = {
    ("Q", 4, -13): ((56, 791, 4641),
                    "a04691dc0557bcef3f1cd3f3ccc6cd3e0209fd702c9f3afbe2408e0011cfd457"),
    ("F32003", 4, -12): ((81, 860, 4211),
                         "e2df20bdf2fbf70552a033723d0a1b6022fa4c36682abea04ab87477fea50493"),
}


@pytest.mark.parametrize("slice_", sorted(DEEP_TRUNCATED_POLY))
def test_deep_truncated_poly_cocycles_are_pinned(slice_):
    field, p, q = slice_
    A = truncated_poly(6, 1) if field == "Q" else truncated_poly(6, 1, F32003)
    res = hh_bar(A, p, q, want_cocycles=True)
    assert res.dim == len(res.cocycles) == 1
    assert (res.slice_dims, digest(res.cocycles)) == DEEP_TRUNCATED_POLY[slice_]


def test_a2_zigzag_cocycle_over_f7_is_pinned():
    res = hh_bar(a2_121("zigzag"), 2, -2, want_cocycles=True)
    assert res.slice_dims == (2, 8, 8)
    assert res.cocycles == (
        (
            (("t1", "t1"), "t1", "1"),
            (("t1", "a21"), "a21", "1"),
            (("t2", "t2"), "t2", "6"),
            (("a12", "t1"), "a12", "1"),
            (("a12", "a21"), "e2", "1"),
        ),
    )


# (preset, p, q) -> (dim, slice dims, digest) of A2 (1,2,1) over F_7; the
# slices of dimension 4 and 8 reduce several kernel vectors against the
# image of d_(p-1) and against each other
A2_F7 = {
    ("zigzag", 4, -6): (1, (2, 22, 50),
                        "3c391f8d04e57627e5968c99884c710bf0de81219cc5226fe2f594933fa11430"),
    ("orthogonal", 2, -2): (4, (2, 8, 8),
                            "b24cae9190f768e0644ebbb676f8671fce1255ba6fb189b031463e3bccf77859"),
    ("orthogonal", 4, -6): (8, (2, 22, 50),
                            "295a9e87c94727572cdb6471f48a33fe4abc176af660c4c0a254df4fc33b0608"),
}


@pytest.mark.parametrize("slice_", sorted(A2_F7))
def test_a2_cocycles_over_f7_are_pinned(slice_):
    preset, p, q = slice_
    res = hh_bar(a2_121(preset), p, q, want_cocycles=True)
    assert (res.dim, res.slice_dims, digest(res.cocycles)) == A2_F7[slice_]
    assert len(res.cocycles) == res.dim


def interleaved():
    """Two vertices, with the degree 2 diagonal labels x1, x2, y1 in basis
    order and x1, y1 at vertex 1, so that C^0 in degree 2, numbered in basis
    order, interleaves the vertices; a = e2 a e1 and a x1 = x2 a = z."""
    basis = (("e1", 0), ("e2", 0), ("a", 1), ("x1", 2), ("x2", 2), ("y1", 2), ("z", 3))
    mult = {("e1", "e1"): {"e1": 1}, ("e2", "e2"): {"e2": 1},
            ("a", "x1"): {"z": 1}, ("x2", "a"): {"z": 1}}
    for lab, left, right in (("a", "e2", "e1"), ("x1", "e1", "e1"), ("x2", "e2", "e2"),
                             ("y1", "e1", "e1"), ("z", "e2", "e1")):
        mult[(left, lab)] = mult[(lab, right)] = {lab: 1}
    return GradedAlgebra(RATIONALS_SPEC, basis, mult, {"e1": 1, "e2": 1})


# (mode, p, q) -> (slice dims, cocycles) of the interleaved algebra: the
# classes come in the order of their last column, so numbering C^0 vertex by
# vertex (x1, y1, x2) would list y1 before x1 + x2
INTERLEAVED = {
    ("relative_normalized", 0, 0): ((0, 2, 7), ((((), "e1", "1"), ((), "e2", "1")),)),
    ("relative_normalized", 0, 2): ((0, 3, 1), ((((), "x1", "1"), ((), "x2", "1")),
                                                (((), "y1", "1"),))),
    ("absolute", 0, 2): ((0, 3, 7), ((((), "x1", "1"), ((), "x2", "1")), (((), "y1", "1"),))),
    ("relative_normalized", 1, 0): ((2, 7, 3), (
        ((("x1",), "y1", "1"),),
        ((("a",), "a", "-1"), (("x1",), "x1", "1"), (("x2",), "x2", "1")),
        ((("y1",), "y1", "1"),),
    )),
    ("relative_normalized", 1, 2): ((3, 1, 0), ()),
}


@pytest.mark.parametrize("slice_", sorted(INTERLEAVED))
def test_interleaved_vertices_keep_the_basis_order_of_c0(slice_):
    mode, p, q = slice_
    res = hh_bar(interleaved(), p, q, mode=mode, want_cocycles=True)
    assert (res.slice_dims, res.cocycles) == INTERLEAVED[slice_]
    assert len(res.cocycles) == res.dim
