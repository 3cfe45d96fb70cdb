import collections
import copy
import functools
import itertools
import math
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchyard import algebra as al
from switchyard import io

KINDS = ["real", "circle", "cylinder", "zd:5", "zd:12"]


def rnd(kind, seed=0):
    return al.random_element(kind, random.Random(seed))


def left_fold(kind, elements):
    """The reference sum: binary `group_add` from the left, normalizing every step."""
    return functools.reduce(al.group_add, elements, al.zero(kind))


class TestGroupOps:
    def test_cyclic_addition_wraps(self):
        assert al.group_add(al.cyclic(5, 3), al.cyclic(5, 4)).value == 2

    def test_cylinder_addition(self):
        s = al.group_add(al.cylinder(1.0, 6.0), al.cylinder(0.5, 1.0))
        assert s.value[0] == pytest.approx(1.5)
        assert s.value[1] == pytest.approx(7.0 - al.TWO_PI)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(al.GroupKindError):
            al.group_add(al.real(1.0), al.circle(1.0))
        with pytest.raises(al.GroupKindError):
            al.group_add(al.cyclic(5, 1), al.cyclic(7, 1))

    def test_binary_ops_follow_the_summation_rule(self):
        # each is `combine`: an overflowing sum raises, a negated zero is +0.0
        with pytest.raises(al.SumOverflow):
            al.group_add(al.real(1e308), al.real(1e308))
        assert math.copysign(1.0, al.group_neg(al.circle(0.0)).value) == 1.0

    def test_circle_equality_wraps(self):
        assert al.elements_equal(al.circle(al.TWO_PI - 1e-12), al.circle(0.0))
        assert not al.elements_equal(al.circle(0.1), al.circle(0.0))

    @given(st.sampled_from(KINDS), st.integers(0, 10 ** 6))
    def test_assoc_comm(self, kind, seed):
        rng = random.Random(seed)
        a, b, c = (al.random_element(kind, rng) for _ in range(3))
        lhs = al.group_add(al.group_add(a, b), c)
        rhs = al.group_add(a, al.group_add(b, c))
        assert al.elements_equal(lhs, rhs, tol=1e-12)
        assert al.elements_equal(al.group_add(a, b), al.group_add(b, a), tol=1e-12)

    @given(st.sampled_from(KINDS), st.integers(0, 10 ** 6))
    def test_neg_cancels(self, kind, seed):
        a = al.random_element(kind, random.Random(seed))
        assert al.is_zero(al.group_add(a, al.group_neg(a)), tol=1e-12)

    @given(st.sampled_from(KINDS), st.integers(0, 10 ** 6), st.integers(-7, 7))
    def test_int_scale_matches_repeated_add(self, kind, seed, n):
        a = al.random_element(kind, random.Random(seed))
        acc = al.zero(kind)
        for _ in range(abs(n)):
            acc = al.group_add(acc, a)
        if n < 0:
            acc = al.group_neg(acc)
        assert al.elements_equal(al.int_scale(n, a), acc, tol=1e-9)

    @given(st.sampled_from(KINDS), st.integers(0, 10 ** 6))
    def test_json_roundtrip(self, kind, seed):
        a = al.random_element(kind, random.Random(seed))
        [back] = al._from_lanes(kind, [io.lane_from_json(kind, io.lane_to_json(a.value))])
        assert al.elements_equal(a, back, tol=1e-12)


class TestTorsion:
    def test_cyclic12_residue4_is_3_torsion(self):
        assert al.is_d_torsion(al.cyclic(12, 4), 3)
        assert not al.is_d_torsion(al.cyclic(12, 4), 2)

    @given(st.sampled_from(KINDS), st.integers(2, 8), st.integers(0, 7))
    def test_torsion_element_is_torsion(self, kind, d, k):
        t = al.torsion_element(kind, d, k)
        assert al.is_d_torsion(t, d)
        assert al.is_zero(al.int_scale(d, t), tol=1e-9)

    def test_real_has_no_torsion(self):
        assert al.torsion_order("real", 5) == 1
        assert al.is_d_torsion(al.real(0.0), 5)
        assert not al.is_d_torsion(al.real(0.5), 5)

    @pytest.mark.parametrize("value", [al.cylinder(1e-9, al.TWO_PI / 3), al.cyclic(12, 4)])
    def test_torsion_value_snaps_once(self, value, monkeypatch):
        calls = []
        snap = al.snap_torsion
        monkeypatch.setattr(al, "snap_torsion", lambda a, d: calls.append(d) or snap(a, d))
        t = al.TorsionValue(value, 3, 1e-8)
        assert calls == [3]
        assert (t.residue, t.residual) == snap(value, 3)
        assert t.residue == 1

    def test_torsion_value_checks_d_first(self):
        for d in (0, -3):
            with pytest.raises(ValueError, match="d must be >= 1"):
                al.TorsionValue(al.cylinder(0.0, 0.0), d)
        with pytest.raises(ValueError, match="element is not 3-torsion"):
            al.TorsionValue(al.cylinder(0.0, 1.0), 3)

    def test_torsion_orders(self):
        assert al.torsion_order("circle", 5) == 5
        assert al.torsion_order("cylinder", 4) == 4
        assert al.torsion_order("zd:12", 4) == 4
        assert al.torsion_order("zd:12", 5) == 1  # gcd(12,5)=1

    @given(st.integers(2, 12), st.integers(0, 40), st.integers(0, 40))
    def test_cyclic_to_cylinder_homomorphism(self, n, x, y):
        a, b = al.cyclic(n, x), al.cyclic(n, y)
        lhs = al.to_cylinder(al.group_add(a, b))
        rhs = al.group_add(al.to_cylinder(a), al.to_cylinder(b))
        assert al.elements_equal(lhs, rhs, tol=1e-9)
        assert al.to_cylinder(a).value[0] == 0.0

    @given(st.sampled_from(KINDS), st.integers(0, 10 ** 6), st.integers(-5, 5))
    def test_to_cylinder_homomorphism(self, kind, seed, n):
        rng = random.Random(seed)
        a, b = al.random_element(kind, rng), al.random_element(kind, rng)
        lhs = al.to_cylinder(al.group_add(a, al.int_scale(n, b)))
        rhs = al.group_add(al.to_cylinder(a), al.int_scale(n, al.to_cylinder(b)))
        assert lhs.kind == "cylinder"
        assert al.elements_equal(lhs, rhs, tol=1e-9)
        assert al.is_zero(al.to_cylinder(al.zero(kind)), tol=0.0)


def _componentwise_equal(a, b, tol):
    """`elements_equal` as it was written before `distance`: one test per part."""
    if a.kind == "real":
        return abs(a.value - b.value) <= tol
    if a.kind == "circle":
        return al._angle_dist(a.value, b.value) <= tol
    if a.kind == "cylinder":
        return (abs(a.value[0] - b.value[0]) <= tol
                and al._angle_dist(a.value[1], b.value[1]) <= tol)
    return a.value == b.value


def _nudge(kind, rng):
    """A difference of any size from 0 up to order 1, in ``kind``."""
    x, y = (rng.choice((0.0, 1e-13, 1e-10, 1e-9, 1e-8, 0.3)) * rng.choice((-1, 1))
            for _ in range(2))
    if kind == "real":
        return al.real(x)
    if kind == "circle":
        return al.circle(x)
    if kind == "cylinder":
        return al.cylinder(x, y)
    return al.GroupElement(kind, rng.choice((0, 0, 1, -1)))


class TestDistance:
    @pytest.mark.parametrize("kind", KINDS)
    def test_elements_equal_is_distance_within_tol(self, kind):
        rng = random.Random(17)
        for _ in range(400):
            a = al.random_element(kind, rng)
            b = al.group_add(a, _nudge(kind, rng))
            dist = al.distance(a, b)
            assert dist >= 0.0 and dist == al.distance(b, a)
            for tol in (0.0, 1e-12, 1e-9, 1e-7, 0.5):
                want = _componentwise_equal(a, b, tol)
                assert al.elements_equal(a, b, tol) == want == (dist <= tol)

    def test_cylinder_distance_is_the_larger_part(self):
        a = al.cylinder(0.0, 0.1)
        assert al.distance(a, al.cylinder(3e-4, 0.1 - 2e-4)) == pytest.approx(3e-4, rel=1e-9)
        assert al.distance(a, al.cylinder(-1e-4, 0.1 + 5e-4)) == pytest.approx(5e-4, rel=1e-9)
        assert al.distance(al.cylinder(0.0, 1e-9), al.cylinder(0.0, al.TWO_PI - 1e-9)) \
            == pytest.approx(2e-9, rel=1e-6)

    def test_zd_stays_exact(self):
        for n in (5, 12):
            for r in range(n):
                assert al.distance(al.cyclic(n, r), al.cyclic(n, r + n)) == 0.0
                assert al.distance(al.cyclic(n, r), al.cyclic(n, r + 1)) == math.inf
                assert not al.elements_equal(al.cyclic(n, r), al.cyclic(n, r + 1), 1e300)
        with pytest.raises(al.GroupKindError):
            al.distance(al.cyclic(5, 1), al.cyclic(12, 1))

    @pytest.mark.parametrize("bad", [(math.nan, 0.0), (0.0, math.nan)])
    def test_nan_is_never_within_tol(self, bad):
        a = al.cylinder(*bad)
        assert math.isnan(al.distance(a, al.zero("cylinder")))
        assert not al.elements_equal(a, al.zero("cylinder"), 1.0)

    @pytest.mark.parametrize("kind", ["circle", "cylinder"])
    def test_angles_are_not_normalized_twice(self, kind):
        # bit for bit the rule that normalized both angles again before subtracting
        def renormalized(a, b):
            d = abs(al._norm_angle(a) - al._norm_angle(b))
            return min(d, al.TWO_PI - d)

        def old_distance(x, y):
            if kind == "circle":
                return renormalized(x.value, y.value)
            ang = renormalized(x.value[1], y.value[1])
            return ang if math.isnan(ang) else max(abs(x.value[0] - y.value[0]), ang)

        rng = random.Random(23)
        special = [0.0, -0.0, math.nextafter(al.TWO_PI, 0.0), al.TWO_PI, -1e-300, math.nan]

        def angle():
            return rng.choice([rng.choice(special), rng.uniform(-20.0, 20.0),
                               rng.uniform(0.0, al.TWO_PI)])

        def element():
            if kind == "circle":
                return al.circle(angle())
            return al.cylinder(rng.choice([0.0, -0.0, math.nan, rng.gauss(0.0, 1.0)]), angle())

        for _ in range(3000):
            x, y = element(), element()
            assert al.distance(x, y).hex() == old_distance(x, y).hex()


class TestCombine:
    @pytest.mark.parametrize("kind", KINDS)
    def test_agrees_with_scale_and_add(self, kind):
        rng = random.Random(19)
        for _ in range(50):
            terms = [(rng.randint(-6, 6), al.random_element(kind, rng))
                     for _ in range(rng.randrange(0, 30))]
            chained = left_fold(kind, [al.int_scale(n, x) for n, x in terms])
            got = al.combine(kind, terms)
            assert got.kind == kind
            assert al.elements_equal(got, chained, 1e-12 if kind[:3] != "zd:" else 0.0)

    def test_zd_exact_for_large_coefficients(self):
        big = [(10**40 + 7, al.cyclic(12, 5)), (-(3**90), al.cyclic(12, 11)),
               (2**200, al.cyclic(12, 1))]
        want = (5 * (10**40 + 7) - 11 * 3**90 + 2**200) % 12
        assert al.combine("zd:12", big) == al.cyclic(12, want)
        assert al.combine("zd:12", big + [(12**50, al.cyclic(12, 7))]) == al.cyclic(12, want)
        assert al.combine("zd:12", []) == al.zero("zd:12")

    def test_shuffled_cylinder_terms_give_identical_bits(self):
        rng = random.Random(20)
        terms = [(rng.randint(-3, 3), al.cylinder(rng.uniform(-1e3, 1e3), rng.uniform(0.0, 7.0)))
                 for _ in range(200)]
        first = al.combine("cylinder", terms)
        for _ in range(20):
            rng.shuffle(terms)
            assert al.combine("cylinder", terms).value == first.value

    @pytest.mark.parametrize("kind", KINDS)
    def test_group_sum_agrees_with_left_fold(self, kind):
        rng = random.Random(21)
        for _ in range(50):
            elements = [al.random_element(kind, rng) for _ in range(rng.randrange(0, 40))]
            got = al.group_sum(kind, elements)
            want = left_fold(kind, elements)
            if kind.startswith("zd:"):
                assert got == want
            else:
                assert al.distance(got, want) <= 1e-12

    def test_group_sum_does_not_depend_on_order(self):
        rng = random.Random(22)
        elements = [al.cylinder(rng.uniform(-1e3, 1e3), rng.uniform(0.0, 7.0)) for _ in range(200)]
        first = al.group_sum("cylinder", elements)
        for _ in range(20):
            rng.shuffle(elements)
            assert al.group_sum("cylinder", elements).value == first.value

    def test_correctly_rounded(self):
        # a left-to-right sum loses the 1.0 between the two large terms
        terms = [(1, al.real(1e16)), (1, al.real(1.0)), (-1, al.real(1e16))]
        assert al.combine("real", terms) == al.real(1.0)

    @pytest.mark.parametrize("kind,terms", [
        ("real", [(1, al.real(1e308)), (1, al.real(1e308)), (-1, al.real(1e308))]),
        ("cylinder", [(1, al.cylinder(1e308, 0.0)), (1, al.cylinder(1e308, 1.0))]),
    ])
    def test_overflow_raises_a_named_value_error(self, kind, terms):
        with pytest.raises(al.SumOverflow, match=f"^a {kind} sum of {len(terms)} terms "
                                                 "overflows a float$"):
            al.combine(kind, terms)
        assert issubclass(al.SumOverflow, ValueError)

    @pytest.mark.parametrize("kind,other", [("zd:12", al.cyclic(5, 1)),
                                            ("cylinder", al.circle(1.0)),
                                            ("real", al.cylinder(1.0, 0.0)),
                                            ("circle", al.real(1.0))])
    def test_kind_mismatch_raises(self, kind, other):
        with pytest.raises(al.GroupKindError):
            al.combine(kind, [(1, al.zero(kind)), (2, other)])


def reference_sum(kind, terms):
    """The summation rule spelled out on elements: an exact int sum for "zd:<n>", else
    `math.fsum` of each float part (nan where it refuses -inf + inf), then one
    normalization by construction."""
    def fsum(parts):
        try:
            return math.fsum(parts)
        except ValueError:
            return math.nan

    if kind.startswith("zd:"):
        return al.GroupElement(kind, sum(n * x.value for n, x in terms))
    if kind == "cylinder":
        return al.GroupElement(kind, (fsum([n * x.value[0] for n, x in terms]),
                                      fsum([n * x.value[1] for n, x in terms])))
    return al.GroupElement(kind, fsum([n * x.value for n, x in terms]))


def bits(value):
    parts = value if isinstance(value, tuple) else (value,)
    return tuple(x.hex() if isinstance(x, float) else x for x in parts)


def bits_list(values):
    return [bits(x) for x in values]


class TestLanes:
    """`evaluate` on lanes and `combine` on elements share one arithmetic."""

    @staticmethod
    def special(kind, rng):
        # the non-finite and huge values an element of ``kind`` can hold
        if kind == "real":
            return al.real(rng.choice([math.nan, math.inf, -math.inf, 1e308, -1e308, -0.0]))
        if kind == "circle":
            return al.circle(rng.choice([math.nan, 0.0, -0.0, al.TWO_PI]))
        if kind == "cylinder":
            return al.cylinder(rng.choice([math.nan, math.inf, -math.inf, 1e308, -0.0]),
                               rng.choice([math.nan, 0.0, 1.0]))
        return al.GroupElement(kind, rng.randrange(-10**30, 10**30))

    @pytest.mark.parametrize("kind", KINDS)
    def test_evaluate_and_combine_agree_bit_for_bit(self, kind):
        rng = random.Random(24)
        for _ in range(400):
            elements = [self.special(kind, rng) if rng.random() < 0.1 else rnd(kind, rng.random())
                        for _ in range(rng.randrange(1, 12))]
            big = rng.random() < 0.2 and kind.startswith("zd:")
            row = tuple((rng.choice([10**40 + 7, -(3**90)]) if big else rng.randint(-4, 4),
                         rng.randrange(len(elements))) for _ in range(rng.randrange(0, 20)))
            terms = [(n, elements[s]) for n, s in row]
            try:
                want = reference_sum(kind, terms)
            except OverflowError:
                with pytest.raises(al.SumOverflow):
                    al.evaluate(kind, row, [x.value for x in elements])
                with pytest.raises(al.SumOverflow):
                    al.combine(kind, terms)
                continue
            got = al.evaluate(kind, row, [x.value for x in elements])
            assert bits(got) == bits(want.value) == bits(al.combine(kind, terms).value)

    def test_special_values(self):
        assert math.isnan(al.evaluate("real", ((1, 0), (1, 1)), [-math.inf, math.inf]))
        re, ang = al.evaluate("cylinder", ((1, 0), (-1, 0)), [(math.inf, 1.0)])
        assert math.isnan(re) and ang == 0.0
        assert al.evaluate("real", ((1, 0), (1, 0), (-1, 0)), [1.0]) == 1.0
        for kind, lane in (("real", 1e308), ("cylinder", (1e308, 0.0))):
            with pytest.raises(al.SumOverflow, match=f"^a {kind} sum of 2 terms overflows"):
                al.evaluate(kind, ((1, 0), (1, 0)), [lane])
        row = ((10**40 + 7, 0), (-(3**90), 1), (2**200, 0))
        want = (5 * (10**40 + 7) - 11 * 3**90 + 5 * 2**200) % 12
        assert al.evaluate("zd:12", row, [5, 11]) == want
        assert al.evaluate("circle", ((3, 0),), [math.pi]) == math.fmod(3 * math.pi, al.TWO_PI)
        assert al.evaluate("real", (), []) == 0.0 and al.evaluate("zd:12", (), []) == 0

    def test_unpack_names_the_first_element_of_another_kind(self):
        elements = [al.real(1.0), al.real(2.0), al.cyclic(12, 1), al.cylinder(0.0, 0.0)]
        assert al.unpack("real", elements[:2], str) == [1.0, 2.0]
        with pytest.raises(al.GroupKindError, match="^kind mismatch: 'real' vs 'zd:12' at slot 2$"):
            al.unpack("real", elements, lambda q: f"slot {q}")

    @pytest.mark.parametrize("kind", KINDS)
    def test_cylinder_lane_is_to_cylinder_on_lanes(self, kind):
        rng = random.Random(25)
        for _ in range(200):
            e = rnd(kind, rng.random())
            assert bits(al.cylinder_lane(kind, e.value)) == bits(al.to_cylinder(e).value)


class TestRun:
    """`run` evaluates a plan of rows in one pass; each row is `evaluate`'s sum."""

    # the rows of a plan: the tree solver's (1 to 4 terms of sign +-1, mostly over the
    # lanes just before), rows of 100 terms and more, and short rows of any small n
    SHAPES = {
        "solver": lambda rng, size: tuple(
            (rng.choice((1, -1)), rng.randrange(max(0, size - 6), size))
            for _ in range(rng.randint(1, 4))),
        "long": lambda rng, size: tuple(
            (rng.randint(-3, 3), rng.randrange(size)) for _ in range(rng.randrange(100, 300))),
        "short": lambda rng, size: tuple(
            (rng.randint(-3, 3), rng.randrange(size)) for _ in range(rng.randrange(0, 10))),
    }

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_chained_plan_agrees_with_combine_row_by_row(self, kind):
        # later rows read the lanes of earlier rows, numbered after the inputs; each row
        # is checked against `reference_sum`, and `combine` on elements must agree
        rng = random.Random(26)
        for shape in [*self.SHAPES] * 40:
            elements = [TestLanes.special(kind, rng) if rng.random() < 0.1
                        else rnd(kind, rng.random()) for _ in range(rng.randrange(1, 8))]
            inputs, rows = len(elements), []
            lanes = [x.value for x in elements]
            try:
                for _ in range(rng.randrange(1, 12)):
                    row = self.SHAPES[shape](rng, len(elements))
                    if kind.startswith("zd:") and rng.random() < 0.2:
                        row += ((rng.choice([10**40 + 7, -(3**90)]), rng.randrange(len(elements))),)
                    rows.append(row)
                    elements.append(reference_sum(kind, [(n, elements[s]) for n, s in row]))
            except OverflowError:
                with pytest.raises(al.SumOverflow):
                    al.run(kind, tuple(rows), lanes)
                continue
            got = al.run(kind, tuple(rows), lanes)
            assert bits_list(got) == [bits(x.value) for x in elements[inputs:]]
            for row, want in zip(rows, elements[inputs:]):
                terms = [(n, elements[s]) for n, s in row]
                assert bits(al.combine(kind, terms).value) == bits(want.value)

    @staticmethod
    def product_rule_run(kind, rows, lanes):
        """`run` with every term's lane multiplied by its coefficient, ``n * x`` even
        at n = +-1: the loop `al._run` had before it took a unit term's lane as is,
        with `run`'s rule for an infinite angle sum (nan, on the fallback pass)."""
        def product_run(rows, out, fsum, fmod):
            put = out.append
            if kind == "cylinder":
                for row in rows:
                    re, ang = [], []
                    for n, s in row:
                        x = out[s]
                        re.append(n * x[0])
                        ang.append(n * x[1])
                    put((fsum(re), al._norm_angle(fsum(ang), fmod)))
            elif kind in ("real", "circle"):
                for row in rows:
                    parts = []
                    for n, s in row:
                        parts.append(n * out[s])
                    put(al._norm_angle(fsum(parts), fmod) if kind == "circle" else fsum(parts))
            else:
                m = al._modulus(kind)
                for row in rows:
                    total = 0
                    for n, s in row:
                        total += n * out[s]
                    put(total % m)

        out = list(lanes)
        first = len(out)
        try:
            product_run(rows, out, math.fsum, math.fmod)
        except (ValueError, OverflowError):
            try:
                product_run(rows[len(out) - first:], out, al._fsum, al._fmod)
            except OverflowError as err:
                row = rows[len(out) - first]
                raise al.SumOverflow(f"a {kind} sum of {len(row)} terms overflows a float") from err
        return out[first:]

    @pytest.mark.parametrize("kind", ["real", "circle", "cylinder", "zd:12", "zd:1000003"])
    def test_unit_terms_give_the_bits_of_the_product_rule(self, kind):
        # a term of coefficient +-1 takes its lane or the lane's negation: over lanes of
        # signed zeros, huge values, infinities and nans, in rows that read earlier rows,
        # every lane has the product rule's bits (a nan as nan, whatever its sign), and a
        # plan raises where the product rule does, the same SumOverflow; an infinite
        # angle sum is a nan angle in both, not an error
        floats = [0.0, -0.0, 1e308, -1e308, math.inf, -math.inf, math.nan,
                  math.nextafter(al.TWO_PI, 0.0), 1.0, -2.5, math.pi]
        rng = random.Random(27)

        def lane():
            if kind.startswith("zd:"):
                return rng.choice([0, 1, -1, 11, 1000002, 10**30, -(3**70), rng.randrange(10**6)])
            if kind == "cylinder":
                return (rng.choice(floats), rng.choice(floats))
            return rng.choice(floats)

        def outcome(run, rows, lanes):
            try:
                return None, bits_list(run(kind, rows, lanes))
            except ValueError as err:  # SumOverflow is a ValueError
                return type(err), str(err)

        seen = collections.Counter()
        for _ in range(300):
            lanes = [lane() for _ in range(rng.randrange(1, 6))]
            rows, size = [], len(lanes)
            for _ in range(rng.randrange(1, 8)):
                rows.append(tuple((rng.choice((1, -1, 1, -1, 2, -2, 3, -3)), rng.randrange(size))
                                  for _ in range(rng.randrange(0, 7))))
                size += 1
            rows = tuple(rows)
            want = outcome(self.product_rule_run, rows, lanes)
            assert outcome(al.run, rows, lanes) == want, (rows, lanes)
            seen[want[0]] += 1
        # every outcome the lanes can reach is met
        floating = kind in ("real", "circle", "cylinder")
        assert seen[None] > 100 and (seen[al.SumOverflow] > 0) == floating
        assert seen[ValueError] == 0

    def test_a_refused_row_gives_nan_and_later_rows_still_evaluate(self):
        rows = (((1, 2),), ((1, 0), (1, 1)), ((2, 3), (1, 2)), ((1, 4), (1, 3)), ((-1, 5),))
        assert bits_list(al.run("real", rows, [-math.inf, math.inf, 1.0])) == bits_list(
            [1.0, math.nan, 3.0, math.nan, -3.0])
        # a cylinder row keeps its angle when only its real part is refused
        lanes = [(-math.inf, 1.0), (math.inf, 2.0), (1.0, 0.5)]
        out = al.run("cylinder", (((1, 0), (1, 1)), ((1, 2), (1, 3))), lanes)
        assert math.isnan(out[0][0]) and out[0][1] == 3.0
        assert math.isnan(out[1][0]) and out[1][1] == 3.5

    def test_an_infinite_angle_sum_is_a_nan_angle(self):
        # math.fmod refuses an infinite angle; run gives it IEEE fmod's nan, as it gives
        # -inf + inf, and the rows after it still evaluate
        cases = [("cylinder", [(0.0, 1e308)], ((3, 0),), [(0.0, math.nan)]),
                 ("cylinder", [(1.0, math.inf)], ((1, 0),), [(1.0, math.nan)]),
                 ("circle", [math.inf], ((1, 0),), [math.nan]),
                 ("circle", [-math.inf], ((-1, 0),), [math.nan])]
        for kind, lanes, row, want in cases:
            assert bits_list(al.run(kind, (row,), lanes)) == bits_list(want)
        lanes = [(2.0, math.inf), (1.0, 0.5)]
        out = al.run("cylinder", (((1, 1),), ((1, 0), (1, 1)), ((2, 1),)), lanes)
        assert bits_list(out) == bits_list([(1.0, 0.5), (3.0, math.nan), (2.0, 1.0)])

    def test_an_overflowing_product_is_not_refused(self):
        # only a sum's overflow raises; a product n * x enters its sum as an infinity
        assert al.run("real", (((2, 0),),), [1e308]) == [math.inf]
        assert math.isnan(al.run("real", (((2, 0), (-2, 0)),), [1e308])[0])

    def test_an_overflowing_row_raises_sum_overflow(self):
        for kind, lane in (("real", 1e308), ("cylinder", (1e308, 0.0))):
            rows = (((1, 0),), ((1, 0), (1, 1), (1, 0)), ((1, 0), (-1, 0)))
            with pytest.raises(al.SumOverflow, match=f"^a {kind} sum of 3 terms overflows"):
                al.run(kind, rows, [lane])
        # past a row refused for -inf + inf, the overflow is still named by its row
        rows = (((1, 0), (1, 1)), ((1, 2),), ((1, 2), (1, 4), (-1, 2), (1, 4)))
        with pytest.raises(al.SumOverflow, match="^a real sum of 4 terms overflows"):
            al.run("real", rows, [-math.inf, math.inf, 1e308])

    def test_evaluate_is_the_one_row_case(self):
        rows = (((1, 0), (-2, 1)), ((3, 1),))
        for kind, lanes in (("real", [0.5, 2.0]), ("zd:12", [5, 11]),
                            ("cylinder", [(0.5, 1.0), (2.0, 6.0)]), ("circle", [0.5, 6.0])):
            assert al.run(kind, rows, lanes) == [al.evaluate(kind, row, lanes) for row in rows]
            assert al.run(kind, (), lanes) == []

    @pytest.mark.parametrize("kind", [*KINDS, "zd:1", "zd:8", "zd:1000003"])
    def test_random_elements_keep_the_draw_rule_and_stream(self, kind):
        # the stdlib calls the rule stands for, one draw at a time: the same bits and
        # the same generator state after the draws, on every Python the suite runs
        def draw(rng):
            if kind == "real":
                return rng.gauss(0.0, 1.0)
            if kind == "circle":
                return al._norm_angle(rng.uniform(0.0, al.TWO_PI))
            if kind == "cylinder":
                return (rng.gauss(0.0, 1.0), al._norm_angle(rng.uniform(0.0, al.TWO_PI)))
            return rng.randrange(int(kind[3:]))

        # a gaussian drawn before the lanes leaves its pair's second value pending in
        # gauss_next, which the first gaussian lane takes
        for seed, pending, count in itertools.product(range(20), (0, 1), (0, 1, 2, 37)):
            a, b = random.Random(seed), random.Random(seed)
            for rng in (a, b) * pending:
                rng.gauss(0.0, 1.0)
            got = al.random_lanes(kind, a, count)
            assert bits_list(got) == bits_list(draw(b) for _ in range(count))
            assert a.getstate() == b.getstate()
            assert bits(al.random_element(kind, a).value) == bits(draw(b))
            assert a.getstate() == b.getstate()

    def test_extreme_unit_draws_give_the_stdlib_angle(self):
        # random() lies in [0, 1 - 2**-53]: both ends give the angle of the stdlib
        # rule, and the top end stays below 2*pi, so no fmod is needed
        class Ends(random.Random):
            """random() returns 0.0, then 1 - 2**-53, and so on in turn."""
            calls = 0

            def random(self):
                self.calls += 1
                return 0.0 if self.calls % 2 else 1.0 - 2.0 ** -53

        got = al.random_lanes("circle", Ends(), 2)
        stdlib = Ends()
        assert bits_list(got) == bits_list(al._norm_angle(stdlib.uniform(0.0, al.TWO_PI))
                                           for _ in range(2))
        assert got == [0.0, math.nextafter(al.TWO_PI, 0.0)]


class TestBackSubstitute:
    """The one recorder of a solved plan, on a few slots named "slot <s>"."""

    name = "slot {}".format

    def test_solves_in_turn_over_plan_lanes(self):
        # x2 = x0 + x1 from x2 - x0 - x1 = 0, then x3 = eps - x2 from x3 + x2 = eps (lane 9)
        equations = [(((1, 2), (-1, 0), (-1, 1)), 2, None), (((1, 3), (1, 2)), 3, 9)]
        steps, out = al.back_substitute("t", 4, (0, 1), 10, equations, self.name)
        assert out == (0, 1, 10, 11)
        assert steps == (((1, 0), (1, 1)), ((1, 9), (-1, 10)))

    def test_a_rotation_orbit_shares_one_plan_lane(self):
        turn = ((4, 5, 6), (5, 6, 4))
        steps, out = al.back_substitute("t", 7, (0, 1, 2, 3), 4,
                                        [(((1, 5), (-1, 0)), 4, None)], self.name, turn)
        assert out == (0, 1, 2, 3, 4, 4, 4) and steps == (((1, 0),),)
        with pytest.raises(al.PlanError, match="^t: slot 4 has coefficient 2$"):
            al.back_substitute("t", 7, (0, 1, 2, 3), 4, [(((1, 4), (1, 6)), 4, None)],
                               self.name, turn)

    @pytest.mark.parametrize("equations,message", [
        ([(((2, 2), (1, 0)), 2, None)], "slot 2 has coefficient 2"),
        ([(((1, 2), (-1, 2), (1, 0)), 2, None)], "slot 2 has coefficient 0"),
        ([(((1, 0),), 0, None)], "slot 0 is solved already"),
        ([(((1, 2), (1, 3)), 2, None)], "slot 2 is solved from slot 3, not solved yet"),
        ([(((1, 2), (1, 0)), 2, None)], "slot 3 is unsolved"),
    ])
    def test_a_plan_it_cannot_record_names_the_slot(self, equations, message):
        with pytest.raises(al.PlanError, match=f"^t: {message}$"):
            al.back_substitute("t", 4, (0, 1), 10, equations, self.name)


class TestGroupElement:
    def test_repr_is_the_dataclass_form(self):
        assert repr(al.real(1)) == "GroupElement(kind='real', value=1.0)"
        assert repr(al.cyclic(12, 13)) == "GroupElement(kind='zd:12', value=1)"
        assert repr(al.cylinder(1, 0)) == "GroupElement(kind='cylinder', value=(1.0, 0.0))"
        assert str(al.circle(0.5)) == "GroupElement(kind='circle', value=0.5)"

    def test_construction_normalizes(self):
        assert al.GroupElement("circle", -1.0).value == al.TWO_PI - 1.0
        assert al.GroupElement("cylinder", (2, al.TWO_PI + 1.0)).value == (2.0, math.fmod(
            al.TWO_PI + 1.0, al.TWO_PI))
        assert al.GroupElement("zd:12", -1).value == 11
        assert type(al.GroupElement("real", 3).value) is float
        with pytest.raises(al.GroupKindError):
            al.GroupElement("zd:0", 1)

    def test_equal_and_hashed_by_kind_and_value(self):
        a, b = al.cylinder(1.0, 7.0), al.cylinder(1, 7.0 - al.TWO_PI)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert al.real(1.0) != al.circle(1.0) and al.cyclic(5, 1) != al.cyclic(12, 1)
        # equality holds only between elements, never with a raw value
        assert al.real(1.0) != 1.0 and al.real(1.0).__eq__(1.0) is NotImplemented
        assert al.cyclic(12, 1) != ("zd:12", 1)
        nan = al.real(math.nan)
        assert nan == nan  # the dataclass compared (kind, value) tuples, identity first

    def test_frozen_and_slotted(self):
        e = al.real(1.0)
        with pytest.raises(FrozenInstanceError, match="^cannot assign to field 'value'$"):
            e.value = 2.0
        with pytest.raises(FrozenInstanceError, match="^cannot assign to field 'other'$"):
            e.other = 2.0
        with pytest.raises(FrozenInstanceError, match="^cannot delete field 'kind'$"):
            del e.kind
        assert e == al.real(1.0) and not hasattr(e, "__dict__")

    @pytest.mark.parametrize("kind", KINDS)
    def test_copy_and_pickle_rebuild(self, kind):
        e = rnd(kind, 3)
        for twin in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert twin == e and bits(twin.value) == bits(e.value)


class TestFormatLog:
    @pytest.mark.parametrize("re", [0.0, -2.5, 1e-15])
    def test_rounding_on_either_side_of_zero_prints_one_form(self, re):
        forms = {al.format_log(al.cylinder(re, ang)) for ang in (-1e-15, 0.0, 1e-15, al.TWO_PI)}
        assert forms == {f"log={re:.12g}+0i"}
        assert al.format_log(al.circle(-1e-15)) == al.format_log(al.real(0.0)) == "log=0+0i"

    def test_angles_past_the_print_zero_print_as_before(self):
        outside = 2 * al.PRINT_ZERO_ANGLE
        assert al.format_log(al.cylinder(1.0, outside)) == f"log=1{outside:+.12g}i"
        assert al.format_log(al.cylinder(1.0, -outside)) == f"log=1{al.TWO_PI - outside:+.12g}i"
        assert al.format_log(al.cylinder(0.5, math.pi)) == f"log=0.5{math.pi:+.12g}i"
        assert al.format_log(al.cyclic(12, 3)) == f"log=0{al.TWO_PI / 4:+.12g}i"

    def test_print_zero_is_half_a_unit_in_the_last_printed_digit_of_two_pi(self):
        # 2*pi prints as 6.28318530718, its last digit in the 1e-11 place
        assert f"{al.TWO_PI:.12g}" == "6.28318530718"
        assert al.format_log(al.circle(4.9e-12)) == al.format_log(al.circle(-4.9e-12)) == "log=0+0i"
        assert al.format_log(al.circle(5.1e-12)) == "log=0+5.1e-12i"


class TestSnapTorsion:
    @pytest.mark.parametrize("kind", KINDS)
    def test_lattice_points_snap_exactly(self, kind):
        for d in range(2, 9):
            for k in range(d):
                e = al.torsion_element(kind, d, k)
                got, residual = al.snap_torsion(e, d)
                assert residual <= 1e-12
                assert al.elements_equal(al.torsion_element("cylinder", d, got),
                                         al.to_cylinder(e), 1e-12)
                if kind in ("circle", "cylinder"):
                    assert got == k

    def test_residual_is_the_distance_to_the_lattice_point(self):
        # bit for bit the max(|re|, wrapped angle error) it was before `distance`
        rng = random.Random(18)
        for _ in range(500):
            d = rng.randrange(2, 13)
            e = al.cylinder(rng.gauss(0.0, 1e-6), rng.uniform(-10.0, 10.0))
            k, residual = al.snap_torsion(e, d)
            re, ang = e.value
            assert residual == max(abs(re), al._angle_dist(ang, al.TWO_PI * k / d))
            assert residual == al.distance(e, al.torsion_element("cylinder", d, k))

    def test_residual_is_the_larger_error(self):
        # real part 3e-4 and angle 2e-4 past the lattice point k=1 of d=4
        k, residual = al.snap_torsion(al.cylinder(3e-4, al.TWO_PI / 4 + 2e-4), 4)
        assert k == 1
        assert residual == pytest.approx(3e-4, rel=1e-9)
        k, residual = al.snap_torsion(al.cylinder(-1e-4, -5e-4), 4)  # wraps to k=0
        assert k == 0
        assert residual == pytest.approx(5e-4, rel=1e-9)
        assert al.elements_equal(al.cylinder(-1e-4, -5e-4), al.zero("cylinder"), 5.1e-4)
        assert not al.elements_equal(al.cylinder(-1e-4, -5e-4), al.zero("cylinder"), 4.9e-4)


class TestKindTags:
    @pytest.mark.parametrize("tag", ["zd:+3", "zd: 3", "zd:03", "zd:\u0663", "zd:3 ",
                                     "zd:0", "zd:-3", "zd:", "zd:abc", "zd:3.0"])
    def test_non_canonical_modulus_rejected(self, tag):
        with pytest.raises(al.GroupKindError, match="bad cyclic modulus"):
            al.check_kind(tag)
        with pytest.raises(al.GroupKindError):
            al.GroupElement(tag, 1)

    @pytest.mark.parametrize("tag", [["zd:3"], {"zd": 3}, 3, None])
    def test_non_string_kind_rejected(self, tag):
        with pytest.raises(al.GroupKindError, match="unknown group kind"):
            al.check_kind(tag)

    @pytest.mark.parametrize("tag", ["quaternion", "Real", "zd3", ""])
    def test_unknown_kind_rejected(self, tag):
        with pytest.raises(al.GroupKindError, match="unknown group kind"):
            al.check_kind(tag)
        for make in (al.zero, lambda k: al.torsion_element(k, 3),
                     lambda k: al.random_element(k, random.Random(0))):
            with pytest.raises(al.GroupKindError):
                make(tag)

    @pytest.mark.parametrize("tag", ["real", "circle", "cylinder", "zd:1", "zd:3", "zd:120"])
    def test_canonical_kinds_accepted(self, tag):
        assert al.check_kind(tag) == tag

    def test_construction_normalizes_as_the_kind_parser_rule(self):
        # the rule that parsed the kind before testing the float kinds by name
        def parsed_first(kind, value):
            n = al._modulus(kind)
            if n is not None:
                return int(value) % n
            if kind == "circle":
                return al._norm_angle(float(value))
            if kind == "cylinder":
                return (float(value[0]), al._norm_angle(float(value[1])))
            return float(value)

        def bits(value):
            parts = value if isinstance(value, tuple) else (value,)
            return tuple(x.hex() if isinstance(x, float) else x for x in parts)

        rng = random.Random(60)

        def draw():
            return rng.choice([rng.uniform(-10.0, 10.0), rng.uniform(al.TWO_PI, 100.0),
                               -rng.uniform(0.0, 1e18), rng.uniform(-1e300, 1e300),
                               al.TWO_PI, -al.TWO_PI, 0.0, -0.0, -1e-300])

        for _ in range(2000):
            for kind in ("real", "circle", "cylinder", "zd:12"):
                if kind == "cylinder":
                    value = (draw(), draw())
                elif kind == "zd:12":
                    value = rng.choice([rng.randrange(-10**30, 10**30), draw()])
                else:
                    value = draw()
                assert bits(al.GroupElement(kind, value).value) == bits(parsed_first(kind, value))


class TestIndexSets:
    def test_d5_tables(self):
        t = al.index_tables(5)
        assert set(t.A_prime) == {(1, 4), (2, 3)}
        assert set(t.B_star) == {(1, 2, 2), (2, 1, 2), (2, 2, 1)}
        assert set(t.B_dprime) == {(3, 1, 1)}
        assert t.j_prime == (2, 1, 2)

    def test_d4_tables(self):
        t = al.index_tables(4)
        assert t.i_zero == (2, 2)
        assert set(t.B_zero) == {(1, 2, 1)}
        assert t.B_star == ()
        assert t.j_zero == (2, 1, 1)
        assert t.j_prime == (1, 2, 1)

    def test_d2_tables(self):
        t = al.index_tables(2)
        assert t.A == ((1, 1),)
        assert t.B == ()
        assert t.A_prime == ()
        assert t.j_prime is None

    def test_tables_built_once_per_d(self):
        for d in (2, 3, 6):
            assert al.index_tables(d) is al.index_tables(d)
        assert al.index_tables(4) is not al.index_tables(5)

    def test_d_below_2_rejected(self):
        with pytest.raises(ValueError):
            al.index_tables(1)

    @given(st.integers(2, 10))
    def test_set_sizes(self, d):
        t = al.index_tables(d)
        assert len(t.A) == d - 1
        assert len(t.B) == (d - 1) * (d - 2) // 2
        assert len(t.A_prime) == (d - 1) // 2
        assert len(t.B_dprime) == max(0, -(-(d - 3) // 2))
        for j in t.B:
            assert sum(j) == d and min(j) >= 1
        for i in t.A:
            assert sum(i) == d and min(i) >= 1

    @given(st.integers(2, 10))
    def test_involutions_and_rotations(self, d):
        t = al.index_tables(d)
        for i in t.A:
            assert al.hat_pair(al.hat_pair(i)) == i
            assert al.hat_pair(i) in set(t.A)
        bset = set(t.B)
        for j in t.B:
            assert al.rot_minus(al.rot_plus(j)) == j
            assert al.rot_plus(al.rot_plus(al.rot_plus(j))) == j
            assert al.rot_plus(j) in bset

    @given(st.integers(2, 10))
    def test_b_star_rotation_closed(self, d):
        t = al.index_tables(d)
        star = set(t.B_star)
        for j in star:
            assert al.rot_plus(j) in star
            assert al.rot_minus(j) in star

    def test_even_b_zero_structure(self):
        for d in (4, 6, 8):
            t = al.index_tables(d)
            assert all(j[1] == d // 2 for j in t.B_zero)
            assert al.rot_minus(t.j_zero) in set(t.B_zero)
            assert set(t.B_dprime) == set(t.B_prime) | {t.j_zero}


class TestDimensionCount:
    @pytest.mark.parametrize("d,g,expected", [(3, 2, 16), (2, 2, 6), (8, 3, 252)])
    def test_pinned_values(self, d, g, expected):
        assert al.dimension_count(d, g) == expected

    @given(st.integers(2, 10), st.integers(2, 6))
    def test_identity_always_holds(self, d, g):
        assert al.dimension_count(d, g) == (d * d - 1) * (2 * g - 2)
