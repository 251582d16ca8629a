import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import signedwalk
from signedwalk import chartable, cli, embed, errors, groups, primes
from signedwalk.cli import main
from signedwalk.groups import group_from_spec, matrix_from_rows, permutation
from signedwalk.walk import SignedSequence, exact_distribution

from conftest import LOOP_GENERATORS, matrix_identity, naive_class_powers, ref_encode
from group_specs import BENCH, cyclic, sl2, symmetric


@pytest.fixture()
def specs(tmp_path):
    paths = {}
    for name in ("s3", "q8", "s4", "sl2_3", "sl2_5"):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(BENCH[name]))
        paths[name] = str(p)
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"elements": [1, 2, 3, 1]}))
    paths["seq"] = str(seq)
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps([[[1, 1], [0, 1]]]))
    paths["mats"] = str(mats)
    return paths


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_order(specs, capsys):
    code, out = run(capsys, "order", "--group", specs["s3"], "--element", "[1,0,2]")
    assert code == 0
    assert json.loads(out)["order"] == 2


def test_closure(specs, capsys):
    code, out = run(capsys, "closure", "--group", specs["sl2_5"])
    assert code == 0
    assert json.loads(out)["order"] == 120


def test_rho_exact_path(specs, capsys):
    code, out = run(capsys, "rho", "--group", specs["sl2_5"], "--seq", specs["seq"])
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "exact"
    assert payload["rho_value"] <= 1.0
    assert payload["rho"]["denom_exp"] == 4  # walk length, never reduced
    assert "order_length" in payload["bounds"]


def test_rho_binomial_example(specs, capsys, tmp_path):
    group = tmp_path / "c11.json"
    group.write_text(
        json.dumps(
            {
                "kind": "permutation",
                "degree": 11,
                "generators": [[(i + 1) % 11 for i in range(11)]],
            }
        )
    )
    seq = tmp_path / "seq9.json"
    seq.write_text(json.dumps({"elements": [1], "repeat": 9}))
    code, out = run(capsys, "rho", "--group", str(group), "--seq", str(seq))
    assert code == 0
    assert json.loads(out)["rho"] == {"count": "126", "denom_exp": 9}


def test_rho_distribution_dump(specs, capsys, tmp_path):
    dump = tmp_path / "law.json"
    code, _ = run(
        capsys, "rho", "--group", specs["sl2_5"], "--seq", specs["seq"],
        "--dump-dist", str(dump),
    )
    assert code == 0
    payload = json.loads(dump.read_text())
    assert payload["denom_exp"] == 4
    assert sum(int(e["count"]) for e in payload["entries"]) == 16


def test_closure_and_rho_dump_never_read_the_inverses(specs, capsys, tmp_path, monkeypatch):
    # the exact walk takes each letter's inverse from its inverted column, so
    # on a matrix group neither command runs the whole-group inverse pass
    def outputs(tag: str):
        dump = tmp_path / f"{tag}.json"
        closure = run(capsys, "closure", "--group", specs["sl2_5"], "--elements")
        rho = run(
            capsys, "rho", "--group", specs["sl2_5"], "--seq", specs["seq"], "--dump-dist", str(dump)
        )
        return closure, rho, dump.read_bytes()

    plain = outputs("plain")

    def refuse(tree):
        raise AssertionError("the group's inverses were computed")

    monkeypatch.setattr(groups, "_inverses", refuse)
    assert outputs("patched") == plain
    assert plain[0][0] == plain[1][0] == 0


def test_rho_over_cap_exits_3_and_mc_keeps_the_estimate(specs, capsys, tmp_path):
    seq = tmp_path / "inline_seq.json"
    seq.write_text(json.dumps({"elements": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]}))
    code, err = run_failing(
        capsys, "rho", "--group", specs["sl2_5"], "--seq", str(seq), "--cap", "10"
    )
    assert code == 3
    assert err == "resource cap: closure exceeded cap 10\n"
    # mc on the same files prints what rho's former Monte-Carlo fallback printed under "rho"
    code, out = run(capsys, "mc", "--group", specs["sl2_5"], "--seq", str(seq), "--samples", "2000")
    assert code == 0
    assert json.loads(out) == {
        "distinct_products": 4,
        "max_count": 529,
        "method": "plug-in",
        "plugin_max_frequency": 0.2645,
        "samples": 2000,
        "seed": 0,
        "stderr": 0.009862549112678731,
        "top_element": "02010101",
    }


def test_mc_index_entries_over_cap_exit_3(specs, capsys):
    code, err = run_failing(
        capsys, "mc", "--group", specs["sl2_5"], "--seq", specs["seq"], "--cap", "10"
    )
    assert code == 3
    assert err == "resource cap: closure exceeded cap 10\n"


def test_mc_without_group_enumeration(capsys, tmp_path):
    # permutations are self-describing; matrix sequences carry kind/p inline
    seq = tmp_path / "raw_seq.json"
    seq.write_text(json.dumps({"elements": [[1, 2, 3, 0], [1, 0, 2, 3]], "repeat": 3}))
    code, out = run(capsys, "mc", "--seq", str(seq), "--samples", "5000", "--seed", "1")
    assert code == 0
    assert json.loads(out)["samples"] == 5000

    mseq = tmp_path / "raw_mats.json"
    mseq.write_text(
        json.dumps(
            {"kind": "matrix_mod_p", "p": 5, "elements": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]}
        )
    )
    code, out = run(capsys, "mc", "--seq", str(mseq), "--samples", "5000", "--seed", "1")
    assert code == 0
    assert json.loads(out)["distinct_products"] > 1


def test_mc_thread_invariance(specs, capsys):
    _, out1 = run(
        capsys, "mc", "--group", specs["sl2_5"], "--seq", specs["seq"],
        "--samples", "30000", "--seed", "5", "--threads", "1",
    )
    _, out4 = run(
        capsys, "mc", "--group", specs["sl2_5"], "--seq", specs["seq"],
        "--samples", "30000", "--seed", "5", "--threads", "4",
    )
    assert out1 == out4


@pytest.mark.parametrize(
    ("entries", "closures"),
    [([[[1, 1], [0, 1]], [[1, 0], [1, 1]]], 0), ([1, 2, 3, 1], 1)],
    ids=["inline", "indices"],
)
def test_mc_enumerates_the_group_only_for_index_entries(
    specs, capsys, monkeypatch, tmp_path, entries, closures
):
    calls, close = [], groups.close_generators
    monkeypatch.setattr(
        groups, "close_generators", lambda *a, **k: calls.append(a) or close(*a, **k)
    )
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"elements": entries}))
    code, _ = run(capsys, "mc", "--group", specs["sl2_5"], "--seq", str(seq), "--samples", "2000")
    assert (code, len(calls)) == (0, closures)


def test_chartab(specs, capsys):
    code, out = run(capsys, "chartab", "--group", specs["s3"])
    assert code == 0
    assert sorted(json.loads(out)["degrees"]) == [1, 1, 2]


def test_irreps(specs, capsys):
    code, out = run(capsys, "irreps", "--group", specs["sl2_3"], "--seed", "2024")
    assert code == 0
    payload = json.loads(out)
    assert payload["sum_of_squares"] == 24


def test_fourier_check(specs, capsys):
    for name in ("s3", "q8", "sl2_3"):
        code, out = run(
            capsys, "fourier-check", "--group", specs[name], "--count", "4", "--seed", "1"
        )
        assert code == 0
        assert json.loads(out)["max_abs_deviation"] <= 1e-8


def test_fourier_check_fails_at_absurd_tolerance(specs, capsys):
    code, _ = run(
        capsys, "fourier-check", "--group", specs["s3"], "--count", "2",
        "--seed", "1", "--tol", "1e-30",
    )
    assert code == 1


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "table", "size": 1, "table": [[0]]},
        {"kind": "permutation", "degree": 3, "generators": [[0, 1, 2]]},
    ],
)
def test_fourier_check_rejects_trivial_group(capsys, tmp_path, spec):
    group = tmp_path / "trivial.json"
    group.write_text(json.dumps(spec))
    code = main(["fourier-check", "--group", str(group), "--count", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "group is trivial" in captured.err


def test_mult_bounds(specs, capsys):
    code, out = run(capsys, "mult-bounds", "--group", specs["sl2_3"], "--alpha", "1/2")
    assert code == 0
    assert json.loads(out)["all_pass"]


def _scalar_power_data(G, cc):
    """`chartable._class_powers` rebuilt from the scalar `G.mul` loops."""
    orders, central, powers = naive_class_powers(G, cc)
    power_map = np.full((max(orders), cc.count), -1, dtype=np.int64)
    for c, row in enumerate(powers):
        power_map[: len(row), c] = row
    return orders, central, power_map


@pytest.mark.parametrize("command", [["chartab"], ["mult-bounds", "--alpha", "1/6"]])
def test_s7_table_json_matches_scalar_power_loops(capsys, tmp_path, monkeypatch, command):
    spec = tmp_path / "s7.json"
    gens = [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]]
    spec.write_text(json.dumps({"kind": "permutation", "degree": 7, "generators": gens}))
    argv = [command[0], "--group", str(spec), *command[1:]]
    batched = run(capsys, *argv)
    monkeypatch.setattr(chartable, "_class_powers", _scalar_power_data)
    assert run(capsys, *argv) == batched
    assert batched[0] == 0


@pytest.mark.parametrize("command", ["chartab", "mult-bounds"])
def test_table_consistency_failure_exits_2(specs, capsys, monkeypatch, command):
    # identity-class indicators as eigenlines give d^2 = |G| = 6 (mod 7) on S3,
    # which is no square of a degree d <= 2
    monkeypatch.setattr(
        chartable, "_eigenlines",
        lambda G, cc, ell: [np.eye(cc.count, 1, dtype=np.int64)] * cc.count,
    )
    code = main([command, "--group", specs["s3"]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "lifted degree out of range" in captured.err


def test_mult_bounds_hypothesis_failures_reported(specs, capsys):
    # with a half-width this small the 2-dim character of S4 fails the hypothesis
    code, out = run(capsys, "mult-bounds", "--group", specs["s4"], "--alpha", "1/6")
    assert code == 0
    payload = json.loads(out)
    assert payload["hypothesis_failed"] > 0
    assert payload["all_pass"]


def test_mult_bounds_abelian_empty_report(specs, capsys, tmp_path):
    spec = tmp_path / "c10.json"
    spec.write_text(json.dumps(cyclic(10)))
    code, out = run(capsys, "mult-bounds", "--group", str(spec), "--alpha", "1/6")
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == 0
    assert payload["no_nonlinear_characters"]


def test_svd_props(specs, capsys):
    code, out = run(
        capsys, "svd-props", "--draws", "50", "--unitary-draws", "5", "--seed", "3"
    )
    assert code == 0
    assert json.loads(out)["all_pass"]


def test_diag_json_and_csv(specs, capsys, tmp_path):
    code, out = run(
        capsys, "diag", "--group", specs["sl2_5"], "--seq", specs["seq"], "--dim", "5"
    )
    assert code == 0
    assert json.loads(out)["prefix_product_ok"]
    out_csv = tmp_path / "diag.csv"
    code, _ = run(
        capsys, "diag", "--group", specs["sl2_5"], "--seq", specs["seq"],
        "--dim", "5", "--format", "csv", "--out", str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "l,observed_s_l,predicted_bound,for_s6_lhs,for_s6_rhs"
    assert len(lines) == 6


def test_embed(specs, capsys):
    code, out = run(capsys, "embed", "--matrices", specs["mats"], "--n", "5", "--p-min", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["prime"] == 5
    assert payload["report"][0]["clause"] == "ii"


def test_bounds(specs, capsys):
    code, out = run(capsys, "bounds", "--s", "150", "--n", "400", "--p", "149")
    assert code == 0
    payload = json.loads(out)
    assert payload["prime_order_length"]["value"] == pytest.approx(
        2 / 149 + 120 / 150 + 19 / 20
    )


def test_example2_explicit_and_random(specs, capsys):
    code, out = run(capsys, "example2", "--a", "1,2")
    assert code == 0
    assert json.loads(out)["rho_value"] == 0.25
    code, out = run(capsys, "example2", "--k", "3", "--n", "100", "--seed", "2")
    assert code == 0
    assert json.loads(out)["bound_holds"]


def test_sweep_csv(specs, capsys):
    code, out = run(
        capsys, "sweep", "--group", specs["sl2_5"],
        "--element", "[[1,1],[0,1]]", "--n-max", "6", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,rho,")
    assert len(lines) == 7


def test_sweep_rows_are_the_prefix_laws(specs, capsys):
    code, out = run(
        capsys, "sweep", "--group", specs["sl2_5"], "--element", "[[1,1],[0,1]]", "--n-max", "40",
    )
    assert code == 0
    G = group_from_spec(sl2(5))
    a = matrix_from_rows([[1, 1], [0, 1]], 5)
    for n, row in enumerate(json.loads(out), start=1):
        rho = exact_distribution(G, SignedSequence.constant(a, n)).rho()
        assert row["n"] == n
        assert row["rho"] == {"count": str(rho.count), "denom_exp": n}


def test_sweep_past_walk_cap_exits_3(specs, capsys):
    # n_max past MAX_WALK_LENGTH is refused once the element's order is known
    argv = ["sweep", "--group", specs["s3"], "--element", "[1,0,2]", "--n-max", "4097"]
    code, err = run_failing(capsys, *argv)
    assert code == 3
    assert err == "resource cap: walk length capped at 4096\n"


def test_reruns_are_byte_identical(specs, capsys):
    _, a = run(capsys, "rho", "--group", specs["sl2_5"], "--seq", specs["seq"])
    _, b = run(capsys, "rho", "--group", specs["sl2_5"], "--seq", specs["seq"])
    assert a == b


def test_exit_code_input_error(specs, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(capsys, "closure", "--group", str(bad))
    assert code == 2
    code, _ = run(capsys, "closure", "--group", str(tmp_path / "missing.json"))
    assert code == 2


def test_exit_code_resource_cap(specs, capsys):
    code, _ = run(capsys, "closure", "--group", specs["sl2_5"], "--cap", "10")
    assert code == 3


def run_failing(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    return code, captured.err


@pytest.mark.parametrize("repeat", [0, -1])
def test_repeat_below_one_is_an_input_error_on_both_paths(specs, capsys, tmp_path, repeat):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"elements": [[1, 0, 2]], "repeat": repeat}))
    for argv in (
        ["rho", "--group", specs["s3"], "--seq", str(seq)],  # enumerated group
        ["mc", "--group", specs["s3"], "--seq", str(seq), "--samples", "100"],  # spec read only
        ["mc", "--seq", str(seq), "--samples", "100"],  # no enumeration
    ):
        code, err = run_failing(capsys, *argv)
        assert code == 2
        assert err == "input error: repeat must be >= 1\n"


@pytest.mark.parametrize("repeat", [2049, 2**62])
def test_over_long_repeat_exits_3_before_the_sequence_is_built(specs, capsys, tmp_path, repeat):
    # 2 entries repeated past MAX_WALK_LENGTH = 4096; 2^62 repeats would
    # not fit in memory, so the length is checked before the tuple is built
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"elements": [[1, 0, 2], [0, 2, 1]], "repeat": repeat}))
    for argv in (
        ["rho", "--group", specs["s3"], "--seq", str(seq)],
        ["mc", "--seq", str(seq)],
    ):
        code, err = run_failing(capsys, *argv)
        assert code == 3
        assert err == "resource cap: walk length capped at 4096\n"


def test_repeat_up_to_the_walk_cap_runs(specs, capsys, tmp_path):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"elements": [[1, 0, 2], [0, 2, 1]], "repeat": 2048}))
    code, out = run(capsys, "rho", "--group", specs["s3"], "--seq", str(seq))
    assert code == 0
    assert json.loads(out)["rho"]["denom_exp"] == 4096


def test_mc_index_entries_without_a_group_are_an_input_error(specs, capsys):
    code, err = run_failing(capsys, "mc", "--seq", specs["seq"])
    assert code == 2
    assert err == "input error: index-based sequence entries need an enumerated group\n"


# the exit code `main` gives each class that `errors` defines (a class added
# there without an entry here fails the test below), and the builtin errors
EXIT_CODES = {
    "SignedWalkError": 2,
    "CapExceeded": 3,
    "NotInGroup": 2,
    "NotInvertible": 2,
    "ConsistencyFailure": 2,
    "SplitFailure": 2,
    "ValueError": 2,
    "OSError": 2,
}
ERROR_CLASSES = [
    c for c in vars(errors).values() if isinstance(c, type) and c.__module__ == errors.__name__
]


@pytest.mark.parametrize("cls", ERROR_CLASSES + [ValueError, OSError], ids=lambda c: c.__name__)
def test_the_exception_type_decides_the_exit_code(specs, capsys, monkeypatch, cls):
    def fail(args):
        raise cls("planted")

    monkeypatch.setattr(cli, "_group", fail)
    code, err = run_failing(capsys, "closure", "--group", specs["s3"])
    assert code == EXIT_CODES[cls.__name__]
    assert err == ("resource cap: planted\n" if code == 3 else "input error: planted\n")


def test_matrix_order_factoring_budget_exits_3(capsys, tmp_path, monkeypatch):
    # the image of the unipotent matrix mod p = 1000000103 has its order found
    # from the factored exponent of GL_2(p); p^2 - 1 = 2^4 3 83 6024097 41666671
    # leaves two factors above the trial bound, so Pollard rho runs
    monkeypatch.setattr(primes, "FACTOR_CAP", 1)
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps([[[1, 1], [0, 1]]]))
    argv = ["embed", "--matrices", str(mats), "--n", "3", "--p-min", "1000000103"]
    code, err = run_failing(capsys, *argv)
    assert code == 3
    assert err == "resource cap: factoring exceeded 1 Pollard-rho steps\n"


def test_table_order(capsys, tmp_path):
    # the orders of 1 and 2 in Z/6 are walked along the table, so the bound uses s = 3
    group = tmp_path / "z6.json"
    group.write_text(
        json.dumps(
            {"kind": "table", "table": [[(i + j) % 6 for j in range(6)] for i in range(6)]}
        )
    )
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"elements": [1, 2]}))
    code, out = run(capsys, "rho", "--group", str(group), "--seq", str(seq))
    assert code == 0
    assert json.loads(out)["bounds"]["order_length"]["s"] == 3


@pytest.mark.parametrize(
    ("matrix", "message"),
    [
        ([[-1, 0], [0, -1]], "image order 1 != original order 2"),  # finite order
        ([[1, 1], [0, 1]], "image order 1 < n=3 for an infinite-order input"),
    ],
)
def test_embedding_order_mismatch_exits_2(capsys, tmp_path, monkeypatch, matrix, message):
    # a reduction that collapses everything to the identity contradicts both clauses
    monkeypatch.setattr(embed, "reduce_matrix_mod_p", lambda A, p: matrix_identity(p, A.m))
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps([matrix]))
    code, err = run_failing(capsys, "embed", "--matrices", str(mats), "--n", "3")
    assert code == 2
    assert err.startswith(f"input error: {message}")


def test_factorization_failure_exits_2(capsys, tmp_path, monkeypatch):
    # the prime 1000003 declared composite sends Pollard rho after a factor it cannot find
    real_is_prime = primes.is_prime
    monkeypatch.setattr(primes, "is_prime", lambda n: n != 1000003 and real_is_prime(n))
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps([[[1, "1/1000003"], [0, 1]]]))
    code, err = run_failing(capsys, "embed", "--matrices", str(mats), "--n", "3")
    assert code == 2
    assert err == "input error: rho factorization failed for 1000003\n"


def test_embed_finds_an_undecided_finite_order_below_n(capsys, tmp_path, monkeypatch):
    # one product cannot decide (-I)^12 = I, so the order of -I is undecided and
    # its exponents run towards n = 4; (-I)^2 = I on the way gives the order 2
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps([[[-1, 0], [0, -1]]]))
    argv = ["embed", "--matrices", str(mats), "--n", "4"]
    conclusive = run(capsys, *argv)
    monkeypatch.setattr(embed, "POWER_CAP", 1)
    with pytest.raises(errors.CapExceeded):
        embed.rational_order(embed.RationalMatrix.from_rows([[-1, 0], [0, -1]]))
    code, out = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["report"] == [{"clause": "i", "image_order": 2, "original_order": 2}]
    assert (code, out) == conclusive


def test_factoring_budget_exits_3(capsys, tmp_path, monkeypatch):
    # the denominator (10^9 + 7)(10^9 + 9) survives trial division, and Pollard
    # rho needs more than 1000 steps to split it
    monkeypatch.setattr(embed, "FACTOR_CAP", 1000)
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps([[[1, f"1/{(10**9 + 7) * (10**9 + 9)}"], [0, 1]]]))
    code, err = run_failing(capsys, "embed", "--matrices", str(mats), "--n", "3")
    assert code == 3
    assert err == "resource cap: factoring exceeded 1000 Pollard-rho steps\n"


MINUS_I_MOD_17 = [[16 if i == j else 0 for j in range(4)] for i in range(4)]


def test_mc_on_wide_matrices_reports_the_true_top_element(capsys, tmp_path):
    # 17^16 > 2^63: the products are counted by their encoded bytes, not int64 codes
    seq = tmp_path / "minus_i.json"
    seq.write_text(json.dumps({"kind": "matrix_mod_p", "p": 17, "elements": [MINUS_I_MOD_17]}))
    code, out = run(capsys, "mc", "--seq", str(seq), "--samples", "500")
    assert code == 0
    payload = json.loads(out)
    assert payload["top_element"] == "10000000001000000000100000000010"
    assert payload["distinct_products"] == 1


def test_mc_on_a_degree_300_permutation(capsys, tmp_path):
    # images above 255 take two bytes each in the encoding
    images = (1, 0) + tuple(range(2, 300))
    seq = tmp_path / "transposition.json"
    seq.write_text(json.dumps({"elements": [list(images)]}))
    code, out = run(capsys, "mc", "--seq", str(seq), "--samples", "500")
    assert code == 0
    assert json.loads(out)["top_element"] == ref_encode(permutation(images)).hex()


def test_closure_of_a_small_group_of_wide_matrices(capsys, tmp_path):
    group = tmp_path / "minus_i.json"
    group.write_text(
        json.dumps({"kind": "matrix_mod_p", "p": 17, "m": 4, "generators": [MINUS_I_MOD_17]})
    )
    code, out = run(capsys, "closure", "--group", str(group), "--elements")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 2
    assert payload["elements"] == [
        ref_encode(matrix_identity(17, 4)).hex(),
        ref_encode(matrix_from_rows(MINUS_I_MOD_17, 17)).hex(),
    ]


@pytest.mark.parametrize("command", ["order", "sweep"])
def test_malformed_element_is_an_input_error(specs, capsys, command):
    code, err = run_failing(capsys, command, "--group", specs["s3"], "--element", "[1,")
    assert code == 2
    assert err.startswith("input error: ")


RAW_MATRIX_SEQ = {"elements": [[[1, 1], [0, 1]]]}  # no "kind": read as permutations


@pytest.mark.parametrize(
    ("command", "files", "message"),
    [
        pytest.param(
            ["rho", "--group", "{s3}", "--seq", "{seq}"], {"seq": {"elements": 5}}, "'elements'",
            id="elements-not-a-list",
        ),
        pytest.param(
            ["closure", "--group", "{group}"],
            {"group": {"kind": "permutation", "degree": 3, "generators": [5]}},
            "a permutation entry must be a list of ints",
            id="int-permutation-generator",
        ),
        pytest.param(
            ["closure", "--group", "{group}"], {"group": [1, 2]}, "a spec must be a JSON object",
            id="group-spec-not-an-object",
        ),
        pytest.param(
            ["mc", "--seq", "{seq}"], {"seq": RAW_MATRIX_SEQ}, "a permutation entry",
            id="raw-matrix-sequence-without-kind",
        ),
        pytest.param(
            ["order", "--group", "{s3}", "--element", "5"], {}, "a permutation entry",
            id="int-permutation-element",
        ),
        pytest.param(
            ["order", "--group", "{s3}", "--element", "[[1,0],[0,1]]"], {}, "a permutation entry",
            id="matrix-permutation-element",
        ),
        pytest.param(
            ["embed", "--matrices", "{mats}", "--n", "3"], {"mats": [1, 2]}, "square lists",
            id="embed-matrices-not-matrices",
        ),
        pytest.param(
            ["rho", "--group", "{s3}", "--seq", "{seq}"], {"seq": {"elements": [99]}}, "out of range",
            id="sequence-index-out-of-range",
        ),
        pytest.param(
            ["rho", "--group", "{s3}", "--seq", "{seq}"],
            {"seq": {"elements": [1], "repeat": [2]}},
            "repeat",
            id="repeat-not-an-int",
        ),
        pytest.param(
            ["closure", "--group", "{group}"],
            {"group": {"kind": "matrix_mod_p", "p": [5], "m": 2, "generators": []}},
            "'p'",
            id="p-not-an-int",
        ),
        pytest.param(
            ["closure", "--group", "{group}"], {"group": {"kind": "table", "table": 6}}, "square",
            id="table-not-a-table",
        ),
        *(
            pytest.param(  # the cap ends a closure that would run on without the check
                ["closure", "--group", "{group}", "--cap", "1000"],
                {"group": {"kind": "table", "table": rows, "generators": gens}},
                "not associative",
                id=f"table-not-associative-{name}",
            )
            for name, (rows, gens) in sorted(LOOP_GENERATORS.items())
        ),
        pytest.param(
            ["diag", "--group", "{sl2_5}", "--seq", "{seq}", "--target", "999"], {}, "out of range",
            id="diag-target-out-of-range",
        ),
    ],
)
def test_malformed_input_is_an_input_error(specs, capsys, tmp_path, command, files, message):
    paths = dict(specs)
    for name, data in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    code, err = run_failing(capsys, *(arg.format(**paths) for arg in command))
    assert code == 2
    assert err.startswith("input error: ") and message in err


@pytest.mark.parametrize(
    ("kind", "spec", "key"),
    [
        ("group", {"kind": "matrix_mod_p", "m": 2, "generators": [[[1, 1], [0, 1]]]}, "'p'"),
        ("group", {"kind": "permutation", "degree": 3}, "'generators'"),
        ("seq", {"repeat": 2}, "'elements'"),
    ],
    ids=["group-without-p", "group-without-generators", "seq-without-elements"],
)
def test_missing_spec_key_is_named(specs, capsys, tmp_path, kind, spec, key):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    group = str(path) if kind == "group" else specs["s3"]
    seq = str(path) if kind == "seq" else specs["seq"]
    code, err = run_failing(capsys, "rho", "--group", group, "--seq", seq)
    assert code == 2
    assert err == f"input error: spec has no {key}\n"


# the engines that closure and mc never run
ENGINES = tuple(f"signedwalk.{m}" for m in ("chartable", "irreps", "spectral", "embed", "modarith"))
Z6_TABLE = {"kind": "table", "table": [[(i + j) % 6 for j in range(6)] for i in range(6)]}


@pytest.mark.parametrize(
    ("command", "files"),
    [
        pytest.param(
            ["mc", "--seq", "{seq}", "--samples", "100"],
            {"seq": {"elements": [[1, 0, 2]], "repeat": True}},
            id="repeat",
        ),
        pytest.param(
            ["closure", "--group", "{group}"],
            {"group": {"kind": "permutation", "degree": True, "generators": [[0]]}},
            id="degree",
        ),
        pytest.param(
            ["closure", "--group", "{group}"],
            {"group": {"kind": "matrix_mod_p", "p": 5, "m": True, "generators": [[[2]]]}},
            id="m",
        ),
        pytest.param(
            ["closure", "--group", "{group}"],
            {"group": {"kind": "permutation", "degree": 3, "generators": [[True, False, 2]]}},
            id="permutation-images",
        ),
        pytest.param(
            ["closure", "--group", "{group}"],
            {"group": {"kind": "matrix_mod_p", "p": 5, "m": 2,
                       "generators": [[[True, 1], [0, True]]]}},
            id="matrix-entries",
        ),
        pytest.param(
            ["closure", "--group", "{group}"],
            {"group": {"kind": "table", "table": [[False, True], [True, False]]}},
            id="table-rows",
        ),
        pytest.param(
            ["closure", "--group", "{group}"], {"group": {**Z6_TABLE, "generators": [True]}},
            id="table-generator",
        ),
        pytest.param(
            ["closure", "--group", "{group}"],
            {"group": {"kind": "table", "table": [[0]], "size": True}},
            id="table-size",
        ),
        pytest.param(
            ["order", "--group", "{group}", "--element", "true"], {"group": Z6_TABLE},
            id="table-element",
        ),
        pytest.param(
            ["rho", "--group", "{group}", "--seq", "{seq}"],
            {"group": Z6_TABLE, "seq": {"elements": [True, 2]}},
            id="sequence-index",
        ),
    ],
)
def test_json_booleans_are_no_ints(specs, capsys, tmp_path, command, files):
    # Python's bool is an int, so true/false would pass as 1/0 without the checks
    paths = dict(specs)
    for name, data in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    code, err = run_failing(capsys, *(arg.format(**paths) for arg in command))
    assert code == 2
    assert err.startswith("input error: ")


COMPOSITE_GROUP = {"kind": "matrix_mod_p", "p": 4, "m": 2, "generators": [[[1, 1], [0, 1]]]}
COMPOSITE_SEQ = {"kind": "matrix_mod_p", "p": 4, "elements": [[[1, 1], [0, 1]]]}


@pytest.mark.parametrize(
    "command",
    [
        ["closure", "--group", "{group}"],
        ["order", "--group", "{group}", "--element", "[[1,1],[0,1]]"],
        ["chartab", "--group", "{group}"],
        ["rho", "--group", "{group}", "--seq", "{inline}"],
        ["mc", "--group", "{group}", "--seq", "{inline}"],
        ["mc", "--seq", "{seq}"],
    ],
    ids=["closure", "order", "chartab", "rho", "mc-group", "mc-inline-seq"],
)
def test_composite_modulus_is_refused_while_parsing(capsys, tmp_path, command):
    paths = {}
    for name, data in (("group", COMPOSITE_GROUP), ("seq", COMPOSITE_SEQ),
                       ("inline", {"elements": [[[1, 1], [0, 1]]]})):
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    code, err = run_failing(capsys, *(arg.format(**paths) for arg in command))
    assert (code, err) == (2, "input error: spec 'p' must be a prime, not 4\n")


def test_example2_empty_term_list_is_an_input_error(capsys):
    code, err = run_failing(capsys, "example2", "--a", "")
    assert code == 2
    assert err.startswith("input error: ")


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["bounds", "--s", "3", "--n", str(10**23)], "binomial length capped at 2000000"),
        (["bounds", "--s", "3", "--n", str(10**400)], "binomial length capped at 2000000"),
        (["example2", "--n", str(10**13)], "signed sum capped at (n K)^2 (n + 8) = 100000000000"),
        (["example2", "--k", str(10**6)], "signed sum capped at (n K)^2 (n + 8) = 100000000000"),
        (
            ["example2", "--a", "1,2", "--k", str(10**11)],
            "signed sum capped at (n K)^2 (n + 8) = 100000000000",
        ),
    ],
    ids=["bounds-n", "bounds-n-past-float", "example2-n", "example2-k", "example2-a-k"],
)
def test_size_flags_past_their_caps_exit_3(capsys, argv, message):
    # uncapped, each ends in a traceback with exit 1 (an OverflowError from
    # math.comb or math.sqrt, a 72.8 TiB draw, a MemoryError) or runs for
    # minutes; the cap fires before any work
    code, err = run_failing(capsys, *argv)
    assert (code, err) == (3, f"resource cap: {message}\n")


def test_bounds_of_a_huge_order_and_prime(capsys):
    # 1 / s and 2 / p are int divisions: a Mersenne prime past any float still prints
    big = 2**1279 - 1
    code, out = run(capsys, "bounds", "--s", str(big), "--n", "4", "--p", str(big))
    assert code == 0
    payload = json.loads(out)
    assert payload["order_length"] == {"value": 70.5, "vacuous": True}
    assert payload["prime_order_length"] == {"value": 9.5}


def test_bounds_past_the_digit_limit_stays_an_input_error(capsys):
    # below the binomial cap, a count too long to print is still exit 2
    code, err = run_failing(capsys, "bounds", "--s", "3", "--n", "15000")
    assert code == 2 and err.startswith("input error: Exceeds the limit (4300 digits)")


@pytest.mark.parametrize(
    ("command", "absent"),
    [
        (["closure", "--group", "{s6}"], ENGINES + ("signedwalk.walk", "concurrent.futures")),
        (["mc", "--seq", "{seq}", "--samples", "5000", "--threads", "2"], ENGINES),
        (
            ["chartab", "--group", "{s6}"],
            tuple(f"signedwalk.{m}" for m in ("walk", "irreps", "spectral", "embed"))
            + ("concurrent.futures",),
        ),
    ],
    ids=["closure", "mc", "chartab"],
)
def test_a_command_imports_only_the_engines_it_runs(tmp_path, command, absent):
    paths = {"s6": tmp_path / "s6.json", "seq": tmp_path / "seq.json"}
    paths["s6"].write_text(json.dumps(symmetric(6)))
    paths["seq"].write_text(json.dumps({"elements": [[1, 2, 0, 3], [1, 0, 2, 3]], "repeat": 9}))
    argv = [arg.format(**paths) for arg in command] + ["--out", str(tmp_path / "out.json")]
    code = (
        "import sys\n"
        "from signedwalk.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        f"print([m for m in {absent!r} if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(signedwalk.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr


def run_rejected(capsys, *argv) -> str:
    """argparse refuses the command line: exit 2, usage on stderr, nothing run."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    return captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["chartab", "--group", "{s3}", "--format", "csv"],
        ["bounds", "--s", "3", "--n", "4", "--seed", "1"],
        ["mult-bounds", "--group", "{s3}", "--threads", "2"],
        ["order", "--group", "{s3}", "--element", "[1,0,2]", "--seq", "x.json"],
        ["rho", "--group", "{s3}", "--seq", "{seq}", "--samples", "100"],
    ],
    ids=["chartab-format", "bounds-seed", "mult-bounds-threads", "order-seq", "rho-samples"],
)
def test_flags_a_command_does_not_read_are_rejected(specs, capsys, argv):
    err = run_rejected(capsys, *(arg.format(**specs) for arg in argv))
    assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "--seq", "{seq}", "--group", "{s3}", "--threads", "0"],
        ["mc", "--seq", "{seq}", "--group", "{s3}", "--samples", "0"],
        ["closure", "--group", "{s3}", "--cap", "0"],
        ["irreps", "--group", "{s3}", "--seed", "-1"],
        ["irreps", "--group", "{s3}", "--seed", str(2**64)],
        ["fourier-check", "--group", "{s3}", "--tol", "0"],
        ["fourier-check", "--group", "{s3}", "--count", "0"],
        ["mult-bounds", "--group", "{s3}", "--alpha", "1/0"],
        ["svd-props", "--draws", "-1"],
        ["svd-props", "--unitary-draws", "0"],
        ["sweep", "--group", "{s3}", "--element", "[1,0,2]", "--n-max", "0"],
        ["example2", "--k", "0"],
        ["example2", "--n", "-1"],
    ],
    ids=["threads-0", "samples-0", "cap-0", "seed-negative", "seed-2**64", "tol-0", "count-0",
         "alpha-over-0", "draws-negative", "unitary-draws-0", "n-max-0", "k-0", "n-negative"],
)
def test_out_of_range_values_are_rejected(specs, capsys, argv):
    err = run_rejected(capsys, *(arg.format(**specs) for arg in argv))
    assert "Traceback" not in err
    assert "is not " in err


@pytest.mark.parametrize(
    ("matrices", "p_min", "code", "prime"),
    [
        ([[[-1, 0], [0, -1]]], 10**9 + 8, 0, 10**9 + 9),  # first prime admissible past the bound
        ([[[1, "1/999999937"], [0, 1]]], 999_999_937, 3, None),  # skipping it leads past the bound
    ],
    ids=["admissible-past-bound", "skip-past-bound"],
)
def test_embed_prime_search_bound(capsys, tmp_path, matrices, p_min, code, prime):
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps(matrices))
    argv = ["embed", "--matrices", str(mats), "--n", "3", "--p-min", str(p_min)]
    got, out = run(capsys, *argv)
    assert got == code
    if prime is not None:
        assert json.loads(out)["prime"] == prime
