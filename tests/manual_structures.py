"""Hand-entered structure tables used as oracles across the test suite.

Everything here is written out by hand from the defining relations and the
generator action diagrams, independently of the builders in the package, so
builder output can be compared against these frozen tables.
"""

from fractions import Fraction

from ydalgebra.field import RATIONALS, FieldSpec
from ydalgebra.hopf import ActionTensor, AlgebraData, BraidedPair, CoalgebraData
from ydalgebra.linalg import Matrix, Vector
from ydalgebra.posthopf import YDPostHopf
from ydalgebra.rota import RelRB

F = Fraction
ONE, G, X, XG = range(4)


def vec4(coeffs, field: FieldSpec = RATIONALS):
    return Vector(4, {i: c for i, c in enumerate(coeffs) if c}, field)


def sweedler_transmutation_manual(k=F(1)) -> YDPostHopf:
    """Braided Sweedler carrier with its action/beta tables on {1,g,x,xg}.

    Relations g.g = 1, x.x = k(1-g), x.g = g.x; the product is commutative.
    """
    k = F(k)
    z = [0, 0, 0, 0]
    one = F(1)
    table = {
        (ONE, ONE): [1, 0, 0, 0], (ONE, G): [0, 1, 0, 0],
        (ONE, X): [0, 0, 1, 0], (ONE, XG): [0, 0, 0, 1],
        (G, ONE): [0, 1, 0, 0], (G, G): [1, 0, 0, 0],
        (G, X): [0, 0, 0, 1], (G, XG): [0, 0, 1, 0],
        (X, ONE): [0, 0, 1, 0], (X, G): [0, 0, 0, 1],
        (X, X): [k, -k, 0, 0], (X, XG): [-k, k, 0, 0],
        (XG, ONE): [0, 0, 0, 1], (XG, G): [0, 0, 1, 0],
        (XG, X): [-k, k, 0, 0], (XG, XG): [k, -k, 0, 0],
    }
    mul = [[vec4(table[(i, j)]) for j in range(4)] for i in range(4)]
    alg = AlgebraData(4, ["1", "g", "x", "g*x"], mul, vec4([1, 0, 0, 0]), RATIONALS)
    comul = [
        [(ONE, ONE, one)],
        [(G, G, one)],
        [(X, ONE, one), (G, X, one)],
        [(XG, G, one), (ONE, XG, one)],
    ]
    coalg = CoalgebraData(4, comul, vec4([1, 1, 0, 0]), RATIONALS)
    s_map = Matrix(4, 4, {
        (ONE, ONE): one, (G, G): one, (XG, X): -one, (X, XG): -one,
    }, RATIONALS)
    carrier = BraidedPair(alg, coalg, s_map)
    action = ActionTensor(4, 4, [
        [vec4([1, 0, 0, 0]), vec4([0, 1, 0, 0]), vec4([0, 0, 1, 0]), vec4([0, 0, 0, 1])],
        [vec4([1, 0, 0, 0]), vec4([0, 1, 0, 0]), vec4([0, 0, -1, 0]), vec4([0, 0, 0, -1])],
        [vec4(z), vec4(z), vec4([k, -k, 0, 0]), vec4([-k, k, 0, 0])],
        [vec4(z), vec4(z), vec4([-k, k, 0, 0]), vec4([k, -k, 0, 0])],
    ], RATIONALS)
    beta = ActionTensor(4, 4, [
        [vec4([1, 0, 0, 0]), vec4([0, 1, 0, 0]), vec4([0, 0, 1, 0]), vec4([0, 0, 0, 1])],
        [vec4([1, 0, 0, 0]), vec4([0, 1, 0, 0]), vec4([0, 0, -1, 0]), vec4([0, 0, 0, -1])],
        [vec4(z), vec4(z), vec4([-k, k, 0, 0]), vec4([k, -k, 0, 0])],
        [vec4(z), vec4(z), vec4([-k, k, 0, 0]), vec4([k, -k, 0, 0])],
    ], RATIONALS)
    return YDPostHopf(carrier, action, beta, params={"k": k})


def sweedler_action_rows(k=F(1)):
    """The 16-entry action diagram, row by row."""
    k = F(k)
    z = vec4([0, 0, 0, 0])
    return [
        [vec4([1, 0, 0, 0]), vec4([0, 1, 0, 0]), vec4([0, 0, 1, 0]), vec4([0, 0, 0, 1])],
        [vec4([1, 0, 0, 0]), vec4([0, 1, 0, 0]), vec4([0, 0, -1, 0]), vec4([0, 0, 0, -1])],
        [z, z, vec4([k, -k, 0, 0]), vec4([-k, k, 0, 0])],
        [z, z, vec4([-k, k, 0, 0]), vec4([k, -k, 0, 0])],
    ]


def sweedler_beta_rows(k=F(1)):
    """The 16-entry convolution-inverse diagram."""
    k = F(k)
    z = vec4([0, 0, 0, 0])
    return [
        [vec4([1, 0, 0, 0]), vec4([0, 1, 0, 0]), vec4([0, 0, 1, 0]), vec4([0, 0, 0, 1])],
        [vec4([1, 0, 0, 0]), vec4([0, 1, 0, 0]), vec4([0, 0, -1, 0]), vec4([0, 0, 0, -1])],
        [z, z, vec4([-k, k, 0, 0]), vec4([k, -k, 0, 0])],
        [z, z, vec4([-k, k, 0, 0]), vec4([k, -k, 0, 0])],
    ]


def trivial_structure(field: FieldSpec = RATIONALS) -> YDPostHopf:
    one = field.one
    unit = Vector(1, {0: one}, field)
    alg = AlgebraData(1, ["1"], [[unit]], unit, field)
    coalg = CoalgebraData(1, [[(0, 0, one)]], unit, field)
    carrier = BraidedPair(alg, coalg, Matrix(1, 1, {(0, 0): one}, field))
    act = ActionTensor(1, 1, [[unit]], field)
    return YDPostHopf(carrier, act, ActionTensor(1, 1, [[unit]], field))


def sub_operator(r: RelRB, support: list[int]) -> RelRB:
    """R restricted to K' = the span of the basis elements of K in support,
    which must be closed under K's product, coproduct and antipode and
    under the action of H: the inclusion K' -> K followed by R, with no
    stored coaction.  ``ValueError`` names what leaves the span."""
    pos = {a: n for n, a in enumerate(support)}
    dk, fs = len(support), r.field

    def inside(v: Vector, what: str) -> Vector:
        if any(k not in pos for k in v.entries):
            raise ValueError(f"{what} leaves the span of {support}")
        return Vector(dk, {pos[k]: c for k, c in v.entries.items()}, fs)

    mul = [[inside(r.k_alg.mul[a][b], "the product") for b in support] for a in support]
    alg = AlgebraData(dk, [r.k_alg.basis_labels[a] for a in support], mul, inside(r.k_alg.unit, "the unit"), fs)
    comul = []
    for a in support:
        if any(j not in pos or k not in pos for j, k, _ in r.k_coalg.comul[a]):
            raise ValueError(f"the coproduct leaves the span of {support}")
        comul.append([(pos[j], pos[k], c) for j, k, c in r.k_coalg.comul[a]])
    counit = Vector(dk, {n: r.k_coalg.eps(a) for n, a in enumerate(support)}, fs)
    anti = Matrix(dk, dk, {(i, n): c for n, a in enumerate(support)
                           for i, c in inside(r.k_antipode.column(a), "the antipode").entries.items()}, fs)
    act = ActionTensor(r.h.dim, dk, [[inside(r.action.act[h][a], "the action") for a in support]
                                     for h in range(r.h.dim)], fs)
    rmap = {(i, n): c for n, a in enumerate(support) for i, c in r.r_map.column(a).entries.items()}
    return RelRB(r.h, alg, CoalgebraData(dk, comul, counit, fs), anti, act, None, Matrix(r.h.dim, dk, rmap, fs),
                 params=dict(r.params))
