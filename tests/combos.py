"""Arithmetic on combos (label -> scalar dicts) of a GradedAlgebra, one
product of basis labels at a time through the multiplication table.

The package reads its tables in plain arithmetic and never multiplies
combos; these functions are the tests' independent reference for
`graded.validate`, `graded.block_structure` and the HH oracles."""

from formalitykit.graded import Combo, GradedAlgebra


def product_labels(A: GradedAlgebra, x: str, y: str) -> Combo:
    """The product of two basis labels, a copy of its table entry."""
    return dict(A.mult.get((x, y), {}))


def combo_add(A: GradedAlgebra, c1: Combo, c2: Combo) -> Combo:
    f = A.field_spec.field()
    out = dict(c1)
    for lab, v in c2.items():
        s = f.scalar(out.get(lab, 0) + v)
        if s:
            out[lab] = s
        else:
            out.pop(lab, None)
    return out


def combo_mul(A: GradedAlgebra, c1: Combo, c2: Combo) -> Combo:
    f = A.field_spec.field()
    out: Combo = {}
    for x, vx in c1.items():
        for y, vy in c2.items():
            coeff = f.scalar(vx * vy)
            if not coeff:
                continue
            for lab, v in product_labels(A, x, y).items():
                s = f.scalar(out.get(lab, 0) + coeff * v)
                if s:
                    out[lab] = s
                else:
                    out.pop(lab, None)
    return out


def combo_eq(A: GradedAlgebra, c1: Combo, c2: Combo) -> bool:
    f = A.field_spec.field()
    return all(not f.scalar(c1.get(lab, 0) - c2.get(lab, 0)) for lab in set(c1) | set(c2))
