import cmath
import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from signedwalk import chartable
from signedwalk.cli import main
from signedwalk.chartable import (
    _class_matrix,
    _class_powers,
    _eigenlines,
    check_multiplicity_bounds,
    dixon_character_table,
    eigenvalue_multiplicities,
    max_character_ratio,
)
from signedwalk.elements import PermutationElement
from signedwalk.errors import CapExceeded, ConsistencyFailure
from signedwalk.groups import close_generators, conjugacy_classes, group_from_spec
from signedwalk.irreps import REGULAR_SIZE_CAP, decompose_regular
from signedwalk.modarith import inv_mod

from conftest import (
    BENCH_NAMES,
    CLASS_CASES,
    naive_class_matrix,
    naive_class_powers,
    naive_eigenlines,
    naive_multiplicities,
)
from group_specs import BENCH, cyclic, sl2


def table_of(name):
    return dixon_character_table(group_from_spec(BENCH[name]))


def test_cyclic_table_is_the_root_of_unity_grid():
    k = 7
    G = group_from_spec(cyclic(k))
    t = dixon_character_table(G)
    assert t.degrees == (1,) * k
    # rows are j -> eps^{i j} for the generator's class, up to row order
    gen_class = int(t.classes.class_of[1])
    got = sorted(round(cmath.phase(v) / (2 * cmath.pi / k)) % k for v in t.values[:, gen_class])
    assert got == list(range(k))


def test_s3_degrees_and_orthogonality():
    t = table_of("s3")
    assert t.degrees == (1, 1, 2)
    sizes = np.array(t.classes.sizes, dtype=float)
    gram = (t.values * sizes) @ t.values.conj().T / t.group.order
    assert np.max(np.abs(gram - np.eye(3))) < 1e-10


def test_counts_match_classes(bench_groups):
    for name, G in bench_groups.items():
        t = dixon_character_table(G)
        assert len(t.degrees) == t.num_classes
        assert sum(d * d for d in t.degrees) == G.order
        assert all(int(t.values[i, 0].real.round()) == t.degrees[i] for i in range(len(t.degrees)))


def test_column_orthogonality(bench_groups):
    t = dixon_character_table(bench_groups["s4"])
    V = t.values
    for j in range(t.num_classes):
        for jp in range(t.num_classes):
            got = np.sum(V[:, j] * V[:, jp].conj())
            want = t.group.order / t.classes.sizes[j] if j == jp else 0.0
            assert abs(got - want) < 1e-6


def test_sl2_7_degree_squares():
    G = group_from_spec(sl2(7))
    t = dixon_character_table(G)
    assert sum(d * d for d in t.degrees) == 7 * 48


def test_class_count_cap(bench_groups, monkeypatch):
    monkeypatch.setattr(chartable, "MAX_CLASSES", 2)
    with pytest.raises(CapExceeded, match="classes exceeds cap 2"):
        dixon_character_table(bench_groups["s3"])


def test_prime_search_failure_names_the_real_floor(bench_groups, monkeypatch, capsys, tmp_path):
    # S3: exponent 6 and 4|G| = 24, so the working prime must exceed isqrt(24) = 4;
    # the first candidate, 7, is not below a search bound of 7
    monkeypatch.setattr(chartable, "_PRIME_SEARCH_BOUND", 7)
    message = "no prime = 1 (mod 6) above 4 below 7"
    with pytest.raises(CapExceeded) as exc:
        dixon_character_table(bench_groups["s3"])
    assert str(exc.value) == message
    spec = tmp_path / "s3.json"
    spec.write_text(json.dumps(BENCH["s3"]))
    assert main(["chartab", "--group", str(spec)]) == 3
    assert capsys.readouterr().err == f"resource cap: {message}\n"


def _cycles(lengths) -> list[PermutationElement]:
    """One cycle per length, on disjoint blocks of consecutive points."""
    gens, start, degree = [], 0, sum(lengths)
    for k in lengths:
        images = list(range(degree))
        images[start : start + k] = [start + (i + 1) % k for i in range(k)]
        gens.append(PermutationElement(tuple(images)))
        start += k
    return gens


@pytest.mark.parametrize(
    ("lengths", "ell"), [((64,), 193), ((2,) * 6, 17), ((3,) * 4, 19)], ids=["c64", "z2^6", "z3^4"]
)
def test_many_class_abelian_tables_match_regular_splitting(lengths, ell):
    # 64 or 81 classes; over F_17 the 64 characters of (Z/2)^6 take 2 values per
    # class, so the class operators repeat each eigenvalue many times
    G = close_generators(_cycles(lengths))
    assert G.order <= REGULAR_SIZE_CAP
    t = dixon_character_table(G)
    assert t.modulus == ell and t.num_classes == G.order
    assert t.degrees == (1,) * G.order
    orders = np.array(t.class_orders)
    assert np.max(np.abs(t.values ** orders - 1)) < 1e-9
    reps = t.classes.representatives
    rows = list(t.values)
    for rep in decompose_regular(G, seed=2024):
        chi = np.array([rep.character[r] for r in reps])
        matches = [i for i, row in enumerate(rows) if np.max(np.abs(row - chi)) <= 1e-6]
        assert len(matches) == 1
        rows.pop(matches[0])
    assert rows == []


def test_scalar_operators_pass_spaces_through(bench_groups, sl2_7):
    """Skipping an operator that is scalar on a space leaves the same eigenlines,
    in the same order, as splitting it through the characteristic polynomial:
    one root, whose kernel is the whole space.  So the table is the same.  On
    S4, SL2(5) and C64 no operator is scalar on a space it meets; on SL2(7)
    three are."""
    groups = [bench_groups["s4"], bench_groups["sl2_5"], close_generators(_cycles((64,))), sl2_7]
    skipped = []
    for G in groups:
        t = dixon_character_table(G)
        want, scalar = naive_eigenlines(G, t.classes, t.modulus)
        got = _eigenlines(G, t.classes, t.modulus)
        assert len(got) == len(want) == t.num_classes
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        skipped.append(scalar)
    assert skipped == [0, 0, 0, 3]


@pytest.mark.parametrize("name", BENCH_NAMES + ["sl2_7", "sl2_49"])
def test_eigenlines_do_not_depend_on_the_operator_order(request, bench_groups, name):
    """The class operators commute, so the order in which they split the space
    cannot change the common eigenlines: those of `_eigenlines` (operators in
    representative order) and those of the naive loop with the operators
    smallest classes first, each scaled to 1 at the identity class, are one
    set."""
    G = bench_groups[name] if name in bench_groups else request.getfixturevalue(name)
    t = dixon_character_table(G)
    cc, ell = t.classes, t.modulus
    by_size = sorted(range(1, cc.count), key=lambda i: (cc.sizes[i], i))

    def lines(spaces):
        return sorted(tuple((W[:, 0] * inv_mod(int(W[0, 0]), ell) % ell).tolist()) for W in spaces)

    want, _ = naive_eigenlines(G, cc, ell, by_size)
    assert len(want) == cc.count
    assert lines(_eigenlines(G, cc, ell)) == lines(want)


def test_multiplicities_identity_class():
    t = table_of("s4")
    for i, d in enumerate(t.degrees):
        prof = eigenvalue_multiplicities(t, i, 0)
        assert prof.multiplicities == (d,)


def test_multiplicities_two_dim_at_three_cycle():
    t = table_of("s3")
    char = t.degrees.index(2)
    cls = next(c for c in range(3) if t.class_orders[c] == 3)
    prof = eigenvalue_multiplicities(t, char, cls)
    assert prof.multiplicities == (0, 1, 1)
    assert prof.central_order == 3


def test_multiplicities_linear_character():
    t = table_of("s3")
    cls = next(c for c in range(3) if t.class_orders[c] == 2)
    sign = next(
        i for i, d in enumerate(t.degrees) if d == 1 and abs(t.values[i, cls] + 1) < 1e-9
    )
    prof = eigenvalue_multiplicities(t, sign, cls)
    assert sum(prof.multiplicities) == 1
    assert prof.multiplicities[1] == 1  # eigenvalue -1 for the sign character


@pytest.mark.parametrize("name", BENCH_NAMES + ["sl2_7", "s6", "sl2_49"])
def test_multiplicities_match_the_dft_of_the_values(bench_groups, request, name):
    """The lift's integer multiplicities equal the projection of the float
    character values onto each eigenvalue, on every (character, class) pair."""
    G = bench_groups[name] if name in bench_groups else request.getfixturevalue(name)
    t = dixon_character_table(G)
    for c in range(t.num_classes):
        assert t.multiplicities[c].shape == (t.num_classes, t.class_orders[c])
        for i in range(t.num_classes):
            prof = eigenvalue_multiplicities(t, i, c)
            assert prof.multiplicities == naive_multiplicities(t, i, c)
            assert all(type(m) is int for m in prof.multiplicities)
            assert sum(prof.multiplicities) == prof.degree == t.degrees[i]


def test_multiplicities_match_explicit_matrices(bench_groups, bench_irreps):
    """Character-derived multiplicities equal the eigenvalue multiplicities of the
    explicit unitary blocks (independent path through eigendecomposition)."""
    for name in ("s4", "sl2_3"):
        G = bench_groups[name]
        t = dixon_character_table(G)
        for rep in bench_irreps[name]:
            # match the block to a table row by its character on class representatives
            chi = np.array([rep.character[r] for r in t.classes.representatives])
            row = min(
                range(t.num_classes),
                key=lambda i: np.max(np.abs(t.values[i] - chi)),
            )
            assert np.max(np.abs(t.values[row] - chi)) < 1e-6
            for cls in range(t.num_classes):
                prof = eigenvalue_multiplicities(t, row, cls)
                k = t.class_orders[cls]
                eigs = np.linalg.eigvals(rep.matrices[t.classes.representatives[cls]])
                counted = [0] * k
                for lam in eigs:
                    j = round(cmath.phase(lam) / (2 * cmath.pi / k)) % k
                    assert abs(lam - cmath.exp(2j * cmath.pi * j / k)) < 1e-6
                    counted[j] += 1
                assert tuple(counted) == prof.multiplicities


def test_max_character_ratio_s3():
    value, char_idx, _ = max_character_ratio(table_of("s3"))
    assert value == pytest.approx(0.5)
    assert table_of("s3").degrees[char_idx] == 2


def test_max_character_ratio_abelian_none():
    G = group_from_spec(cyclic(6))
    assert max_character_ratio(dixon_character_table(G)) is None


def test_multiplicity_bounds_cyclic_empty():
    G = group_from_spec(cyclic(10))
    report = check_multiplicity_bounds(dixon_character_table(G), Fraction(1, 6))
    assert report.entries == []
    assert report.all_pass


def test_multiplicity_bounds_hypothesis_failure_on_s4():
    # the 2-dim character of S4 kills the Klein four-group, so its ratio hits 1
    report = check_multiplicity_bounds(table_of("s4"), Fraction(1, 6))
    assert report.count("hypothesis_failed") > 0
    assert report.all_pass  # checked entries still satisfy their windows


def test_table_json_dump(bench_groups):
    payload = dixon_character_table(bench_groups["q8"]).to_json()
    assert payload["order"] == 8
    assert sorted(payload["degrees"]) == [1, 1, 1, 1, 2]
    assert len(payload["characters"]) == 5


@pytest.mark.parametrize("name", ["s4", "sl2_5", "sl2_7", "z6", "s7"])
def test_class_powers_match_scalar_loops(request, bench_groups, name):
    G = bench_groups[name] if name in bench_groups else request.getfixturevalue(name)
    cc = conjugacy_classes(G)
    orders, central, power_map = _class_powers(G, cc)
    want_orders, want_central, want_powers = naive_class_powers(G, cc)
    assert orders == want_orders
    assert central == want_central
    assert power_map.shape == (max(orders), cc.count)
    for c, want in enumerate(want_powers):
        assert power_map[: orders[c], c].tolist() == want


@pytest.mark.parametrize("name", ["sl2_5", "sl2_7"])
def test_table_power_lookups_match_scalar_loops(request, bench_groups, name):
    G = bench_groups[name] if name in bench_groups else request.getfixturevalue(name)
    t = dixon_character_table(G)
    want_orders, want_central, want_powers = naive_class_powers(t.group, t.classes)
    assert t.class_orders == want_orders
    assert [t.central_order(c) for c in range(t.num_classes)] == list(want_central)
    assert [t.power_classes(c) for c in range(t.num_classes)] == want_powers


@pytest.mark.parametrize("name", CLASS_CASES)
def test_class_matrices_match_per_representative_counts(class_case, name):
    G, cc = class_case(name)
    big = 2**31 - 1  # above every count, so the reduction keeps them exact
    for i in range(cc.count):
        exact = naive_class_matrix(G, cc, i, big)
        assert np.array_equal(_class_matrix(G, cc, i, big), exact)
        assert np.array_equal(_class_matrix(G, cc, i, 7), exact % 7)


def test_class_matrix_rejects_counts_that_do_not_divide(bench_groups):
    G = bench_groups["s4"]
    cc = conjugacy_classes(G)
    k = max(range(cc.count), key=lambda c: cc.sizes[c])
    wrong = dataclasses.replace(cc, sizes=cc.sizes[:k] + (cc.sizes[k] + 1,) + cc.sizes[k + 1 :])
    i = next(c for c in range(cc.count) if cc.sizes[c] > 1 and c != k)
    with pytest.raises(ConsistencyFailure):
        _class_matrix(G, wrong, i, 2**31 - 1)
