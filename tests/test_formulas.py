import pytest

from hookforest import formulas, stats, verify
from hookforest.forest import (chain_forest, enumerate_forests,
                               enumerate_labelings, hook_lengths,
                               labeling_count, parse_forest)
from hookforest.qpoly import BiPoly, Series, q_factorial, q_number


def tq(mapping):
    return BiPoly(mapping)


def total_count(poly):
    return sum(c for _, c in poly.eval_t(1).items())


def test_extension_count():
    assert formulas.extension_count(parse_forest("")) == 1
    assert formulas.extension_count(parse_forest("()")) == 1
    assert formulas.extension_count(parse_forest("(()())")) == 2
    assert formulas.extension_count(parse_forest("()()()")) == 6
    assert formulas.extension_count(chain_forest(5)) == 1


def test_rhs_bw():
    assert formulas.rhs_bw(parse_forest("()")) == BiPoly.one()
    assert formulas.rhs_bw(parse_forest("(()())")) == tq({(0, 0): 2, (0, 1): 2, (0, 2): 2})
    assert formulas.rhs_bw(chain_forest(3)) == q_factorial(3)


def test_rhs_inv_b():
    assert formulas.rhs_inv_b(parse_forest("()")) == q_number(2)
    assert formulas.rhs_inv_b(chain_forest(2)) == q_number(2) * q_number(4)
    expected = 2 * q_number(6) * q_number(2) * q_number(2)
    assert formulas.rhs_inv_b(parse_forest("(()())")) == expected
    assert expected == BiPoly.from_triples(
        [[0, 0, 2], [0, 1, 6], [0, 2, 8], [0, 3, 8], [0, 4, 8],
         [0, 5, 8], [0, 6, 6], [0, 7, 2]])


def test_rhs_fmaj_and_rmaj_share_the_polynomial():
    for theorem in ("thm-fmaj", "thm-rmaj"):
        assert verify.THEOREMS[theorem].rhs == "rhs_inv_b"
    for n in range(5):
        for f in enumerate_forests(n):
            assert verify.closed_form("thm-fmaj", f) == formulas.rhs_inv_b(f)
            assert verify.closed_form("thm-rmaj", f) == formulas.rhs_inv_b(f)


@pytest.mark.parametrize("theorem, message", [
    ("eq-even-odd", "'eq-even-odd' has no closed form"),
    ("eq-coset-fmaj", "'eq-coset-fmaj' has no closed form"),
    ("dec1", "'dec1' has no closed form"),
    ("partition-shift", "'partition-shift' has no closed form"),
    ("thm-le1", "no labeling-free closed form for 'thm-le1'; "
                "use the linext or partitions subcommand"),
    ("lem-partition-gf", "no labeling-free closed form for 'lem-partition-gf'; "
                         "use the linext or partitions subcommand"),
])
def test_closed_form_refuses_theorems_without_one(theorem, message):
    with pytest.raises(ValueError) as info:
        verify.closed_form(theorem, parse_forest("()"))
    assert info.value.args == (message,)


def test_rhs_inv_d():
    assert formulas.rhs_inv_d(parse_forest("")) == BiPoly.one()
    assert formulas.rhs_inv_d(parse_forest("()")) == BiPoly.one()
    assert formulas.rhs_inv_d(chain_forest(2)) == q_number(2) * q_number(2)
    # the antichain gives the constant equal to the even-signed count
    assert formulas.rhs_inv_d(parse_forest("()()")) == BiPoly.term(4)


def test_rhs_bivariate_inv():
    one_tq = tq({(0, 0): 1, (1, 1): 1})
    assert formulas.rhs_bivariate_inv(parse_forest("()")) == one_tq
    chain2 = chain_forest(2)
    expected = tq({(0, 0): 1, (1, 2): 1}) * q_number(2) * one_tq
    assert formulas.rhs_bivariate_inv(chain2) == expected
    for n in range(5):
        for f in enumerate_forests(n):
            biv = formulas.rhs_bivariate_inv(f)
            assert biv.eval_t(0) == formulas.rhs_bw(f)
            assert biv.eval_t(1) == formulas.rhs_inv_b(f)


def test_even_odd_and_inv_d_follow_from_the_bivariate_inv_product():
    # inv-b = inv + n1 + n2, so the (n1; inv + n2) distribution is the
    # (n1; inv-b) product with t^a q^b -> t^a q^(b - a), that is
    # e(F) * prod (1 + t q^(h - 1))[h].  A leaf's factor is 1 + t, so the
    # product vanishes at t = -1 (eq-even-odd), and its even-t slice is
    # the inv-d product (thm-inv-d)
    for n in range(1, 6):
        for f in enumerate_forests(n):
            shifted = BiPoly({(a, b - a): c
                              for (a, b), c in formulas.rhs_bivariate_inv(f).items()})
            product = BiPoly.term(formulas.extension_count(f))
            for h in hook_lengths(f)[1:]:
                product = product * (BiPoly.term(1, t=1, q=h - 1) + 1) * q_number(h)
            assert shifted == product, f.render()
            assert shifted.eval_t(-1).is_zero(), f.render()
            even = BiPoly(((0, b), c) for (a, b), c in shifted.items() if a % 2 == 0)
            assert even == formulas.rhs_inv_d(f), f.render()


def test_rhs_bivariate_majb():
    one_tq = tq({(0, 0): 1, (1, 1): 1})
    assert formulas.rhs_bivariate_majb(parse_forest("()")) == one_tq
    assert formulas.rhs_bivariate_majb(parse_forest("")) == BiPoly.one()
    assert formulas.rhs_bivariate_majb(chain_forest(2)) == one_tq ** 2 * q_number(2)
    # the rmaj closed form arises from it by q -> q^2, t -> 1/q, which
    # maps t^a q^b to q^(2b - a)
    for n in range(5):
        for f in enumerate_forests(n):
            mapped = BiPoly(((0, 2 * b - a), c)
                            for (a, b), c in formulas.rhs_bivariate_majb(f).items())
            assert mapped == verify.closed_form("thm-rmaj", f)


def test_rhs_linext():
    dot = parse_forest("()")
    assert formulas.rhs_linext(dot, (1,)) == BiPoly.term(1, q=1)
    chain2 = chain_forest(2)
    assert formulas.rhs_linext(chain2, (2, -1)) == BiPoly.term(1, q=2)
    anti = parse_forest("()()")
    assert formulas.rhs_linext(anti, (2, -1)) == tq({(0, 1): 1, (0, 2): 1})


def test_linext_quotient_cancels_shared_q_numbers():
    # every [m] of [1100]! cancels against a hook, so [1100]! is never built
    assert formulas._linext_quotient(chain_forest(1100)) == BiPoly.one()
    # a chain of 1099 ending in two leaves keeps [2] alone
    forked = parse_forest("(" * 1099 + "()()" + ")" * 1099)
    assert forked.n == 1101
    assert formulas._linext_quotient(forked) == q_number(2)
    chain, w = chain_forest(1100), tuple(range(1, 1101))
    assert formulas.rhs_linext(chain, w) == BiPoly.term(1, q=stats.maj_b_forest(chain, w))


def test_rhs_partition_gf():
    dot = parse_forest("()")
    s = formulas.rhs_partition_gf(dot, (1,), 3)
    assert s == Series(tq({(0, 1): 1, (0, 2): 1, (0, 3): 1}), 3)
    s = formulas.rhs_partition_gf(dot, (-1,), 2)
    assert s == Series(q_number(3), 2)
    chain2 = chain_forest(2)
    s = formulas.rhs_partition_gf(chain2, (1, 2), 2)
    assert s == Series(BiPoly.zero(), 2)  # weight starts at maj-b = 3


def test_rhs_reiner():
    one_tq = tq({(0, 0): 1, (1, 1): 1})

    def reiner(n):
        return verify.closed_form("eq-reiner", chain_forest(n))
    assert reiner(0) == BiPoly.one()
    assert reiner(1) == one_tq
    assert reiner(2) == one_tq ** 2 * q_number(2)
    assert reiner(3) == one_tq ** 3 * q_factorial(3)
    # both sides of the Reiner row, (p, maj-b) included, meet the
    # (positives, maj-b) product of the chain
    row = verify.THEOREMS["eq-reiner"]
    assert row.rhs == "rhs_bivariate_majb" and ("maj-b", "p") in row.lhs


def test_rhs_length_generating_functions():
    def len_b(n):
        return verify.closed_form("len-b", chain_forest(n))

    def len_d(n):
        return verify.closed_form("len-d", chain_forest(n))
    assert len_b(0) == BiPoly.one()
    assert len_b(1) == q_number(2)
    assert len_b(2) == q_number(2) * q_number(4)
    assert len_b(3) == q_number(2) * q_number(4) * q_number(6)
    assert len_d(0) == BiPoly.one()
    assert len_d(1) == BiPoly.one()
    assert len_d(2) == q_number(2) * q_number(2)
    assert len_d(3) == q_number(2) * q_number(4) * q_number(3)


def test_chain_specialization():
    for n in range(9):
        chain = chain_forest(n)
        # [2][4]...[2n] and [2][4]...[2n-2][n], built by hand
        len_b = len_d = BiPoly.one()
        for k in range(1, n + 1):
            len_b = len_b * q_number(2 * k)
            len_d = len_d * (q_number(2 * k) if k < n else q_number(n))
        assert formulas.rhs_inv_b(chain) == len_b
        assert formulas.rhs_inv_d(chain) == len_d
        assert formulas.rhs_bw(chain) == q_factorial(n)


def test_closed_forms_count_labelings():
    for n in range(5):
        for f in enumerate_forests(n):
            assert total_count(formulas.rhs_bw(f)) == labeling_count(n, "ordinary")
            assert total_count(formulas.rhs_inv_b(f)) == labeling_count(n, "signed")
            assert total_count(formulas.rhs_inv_d(f)) == labeling_count(n, "even-signed")
            assert total_count(formulas.rhs_bivariate_inv(f)) == labeling_count(n, "signed")
            assert total_count(formulas.rhs_bivariate_majb(f)) == labeling_count(n, "signed")
            for poly in (formulas.rhs_bw(f), formulas.rhs_inv_b(f),
                         formulas.rhs_inv_d(f), formulas.rhs_bivariate_inv(f),
                         formulas.rhs_bivariate_majb(f)):
                assert all(c > 0 for _, c in poly.items())


def test_registry_contents():
    assert list(verify.THEOREMS) == [
        "thm-bw", "thm-inv-b", "thm-inv-d", "thm-fmaj", "thm-rmaj",
        "thm-bivariate-inv", "thm-bivariate-majB", "thm-le1",
        "lem-partition-gf", "eq-reiner", "len-b", "len-d",
        "eq-even-odd", "eq-coset-fmaj", "psi", "mirror", "dec1", "partition-shift"]
    scope = {t: row.scope for t, row in verify.THEOREMS.items()}
    assert {t for t, s in scope.items() if s == "size"} == {"eq-reiner", "len-b", "len-d", "psi"}
    assert {t for t, s in scope.items() if s == "labeled"} == {"thm-le1", "lem-partition-gf"}
    labeling_free = {t: row.rhs for t, row in verify.THEOREMS.items() if row.rhs}
    assert set(labeling_free) == {
        "thm-bw", "thm-inv-b", "thm-inv-d", "thm-fmaj", "thm-rmaj",
        "thm-bivariate-inv", "thm-bivariate-majB", "eq-reiner", "len-b", "len-d",
        "psi", "mirror"}
    assert all(callable(getattr(formulas, name)) for name in labeling_free.values())
    assert {t for t, row in verify.THEOREMS.items() if row.fault} == {
        "eq-coset-fmaj", "psi", "mirror", "dec1", "partition-shift"}
    # eq-even-odd alone builds its own report
    assert {t for t, row in verify.THEOREMS.items()
            if row.scope != "labeled" and callable(row.lhs)} == {"eq-even-odd"}
    # the per-labeling closed form of thm-le1 is rhs_linext
    star, w = parse_forest("(()())"), (2, -3, 1)
    assert verify.THEOREMS["thm-le1"].lhs(star, w, 0)[1] == formulas.rhs_linext(star, w)


# ---------------------------------------------------------------------------
# the packed products against a dict convolution: the references multiply
# hand-built factors one at a time with BiPoly.__mul__

def _q_number(m):
    return BiPoly({(0, j): 1 for j in range(m)})


def _convolved(forest, factor, scale=None):
    out = BiPoly.term(formulas.extension_count(forest) if scale is None else scale)
    for h in hook_lengths(forest)[1:]:
        out = out * factor(h)
    return out


def _halved(poly):
    # a nonempty forest's doubled inv-d product has even coefficients alone
    assert all(c % 2 == 0 for _, c in poly.items()), poly
    return BiPoly({key: c // 2 for key, c in poly.items()})


CONVOLVED = {
    "rhs_bw": lambda f: _convolved(f, _q_number),
    "rhs_inv_b": lambda f: _convolved(f, lambda h: _q_number(2 * h)),
    "rhs_inv_d": lambda f: _halved(_convolved(
        f, lambda h: (BiPoly({(0, 0): 1}) + BiPoly({(0, h - 1): 1})) * _q_number(h)
    )) if f.n else BiPoly.one(),
    "rhs_bivariate_inv": lambda f: _convolved(f, lambda h: BiPoly({(0, 0): 1, (1, h): 1})
                                              * _q_number(h)),
    "rhs_bivariate_majb": lambda f: _convolved(f, _q_number)
                                    * BiPoly({(0, 0): 1, (1, 1): 1}) ** f.n,
}


def test_packed_closed_forms_match_dict_convolution():
    for n in range(8):
        q_fact = BiPoly.one()
        for m in range(1, n + 1):
            q_fact = q_fact * _q_number(m)
        for forest in enumerate_forests(n):
            for name, reference in CONVOLVED.items():
                assert getattr(formulas, name)(forest) == reference(forest), (name, forest)
            # [n]! / prod [h_u], multiplied back
            quotient = formulas._linext_quotient(forest)
            assert quotient * _convolved(forest, _q_number, 1) == q_fact, forest


@pytest.mark.parametrize("degree", [0, 6, 10])
def test_packed_partition_product_matches_dict_convolution(degree):
    for n in range(6):
        for forest in enumerate_forests(n):
            full = _convolved(forest, lambda h: BiPoly({(0, j * h): 1
                                                        for j in range(degree // h + 1)}), 1)
            truncated = BiPoly(term for term in full.items() if term[0][1] <= degree)
            product = formulas._partition_product(forest, degree)
            assert (product.degree, product.poly) == (degree, truncated), forest
