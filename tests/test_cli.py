import json

import pytest

from plates.characters import ENGINES
from plates.cli import main
from test_worpitzky import wrong_count_at


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_eulerian_rows(capsys):
    code, out = run(capsys, "eulerian", "--rows", "5")
    assert code == 0
    assert out.splitlines()[-1] == "1 26 66 26 1"


def test_character_formula(capsys):
    code, payload = run_json(capsys, "character", "--n", "3", "--r", "3", "--engine", "formula")
    assert code == 0
    assert payload["schema"] == 1
    assert payload["values"] == {"1-1-1": 9, "2-1": 3, "3": 0}


def test_character_engines_agree(capsys):
    tables = []
    for engine in ("plates", "translation", "diophantine", "formula"):
        code, payload = run_json(capsys, "character", "--n", "3", "--r", "4", "--engine", engine)
        assert code == 0
        tables.append(payload["values"])
    assert all(t == tables[0] for t in tables)


def test_multiplicities(capsys):
    code, payload = run_json(capsys, "multiplicities", "--n", "4", "--r", "3")
    assert code == 0
    assert payload["multiplicities"] == {"4": 5, "2-2": 2, "3-1": 5, "2-1-1": 1}
    assert payload["dimension_audit"] is True


def test_expand_both_engines(capsys):
    code, payload = run_json(
        capsys, "expand", "--plate", "[[{2}_1 {1}_1]]", "--method", "both"
    )
    assert code == 0
    assert payload["engines_agree"] is True
    terms = {t["plate"]: t["coeff"]["coeffs"] for t in payload["expansion"]["terms"]}
    assert terms == {"[[{1,2}_2]]": ["1"], "[[{1}_1 {2}_1]]": ["-1"]}


def test_expand_qplate(capsys):
    code, payload = run_json(
        capsys, "expand", "--plate", "q[[{1}_1 {2}_1]]", "--method", "shuffle"
    )
    assert code == 0
    terms = {t["plate"]: t["coeff"]["coeffs"] for t in payload["expansion"]["terms"]}
    assert terms == {"[[{1,2}_2]]": ["-1"], "[[{1}_1 {2}_1]]": ["2"]}


def test_act(capsys):
    code, payload = run_json(
        capsys, "act", "--perm", "(1 2)", "--plate", "[[{1}_1 {2}_1]]"
    )
    assert code == 0
    terms = {t["plate"]: t["coeff"]["coeffs"] for t in payload["result"]["terms"]}
    assert terms == {"[[{1,2}_2]]": ["1"], "[[{1}_1 {2}_1]]": ["-1"]}


def test_dims(capsys):
    code, payload = run_json(capsys, "dims", "--n", "3", "--r", "2")
    assert code == 0
    assert payload["standard_count"] == payload["rank"] == payload["expected"] == 4
    assert payload["match"] is True
    assert payload["denominator"] == 5
    assert "witnesses" not in payload and "stabilized" not in payload


def test_dims_ignores_the_seed(capsys):
    outputs = {
        run(capsys, "dims", "--n", "4", "--r", "3", "--seed", seed, "--json")
        for seed in ("0", "6006", "28007")
    }
    assert len(outputs) == 1
    code, out = outputs.pop()
    assert code == 0 and json.loads(out)["rank"] == 27


def test_dims_reaches_full_rank_at_small_default_denominator(capsys):
    code, payload = run_json(capsys, "dims", "--n", "3", "--r", "5")
    assert code == 0
    assert (payload["rank"], payload["denominator"]) == (25, 5)


def test_dims_pinned_denominator_reports_its_exact_rank(capsys):
    code, payload = run_json(capsys, "dims", "--n", "6", "--r", "2", "--denominator", "7")
    assert code == 1
    assert (payload["rank"], payload["match"], payload["denominator"]) == (12, False, 7)
    code, payload = run_json(capsys, "dims", "--n", "6", "--r", "2")
    assert code == 0
    assert (payload["rank"], payload["match"], payload["denominator"]) == (32, True, 11)


def test_qbasis(capsys):
    code, payload = run_json(capsys, "qbasis", "--n", "2", "--r", "2")
    assert code == 0
    assert payload["invertible"] is True
    assert payload["size"] == 2


def test_verify_all_small(capsys):
    code, payload = run_json(
        capsys, "verify", "--suite", "all", "--n", "3", "--r", "3", "--seed", "7"
    )
    assert code == 0
    assert payload["ok"] is True
    assert all(check["ok"] for check in payload["checks"])
    suites = {check["suite"] for check in payload["checks"]}
    assert suites == {"cyclic-sum", "relations", "worpitzky", "idempotents", "characters"}


def test_verify_single_suites(capsys):
    for suite in ("cyclic-sum", "relations", "idempotents", "characters"):
        code, payload = run_json(
            capsys, "verify", "--suite", suite, "--n", "2", "--r", "2"
        )
        assert code == 0, suite
        assert payload["ok"] is True


def test_json_output_is_deterministic(capsys):
    _, first = run(capsys, "verify", "--suite", "characters", "--n", "3", "--r", "2", "--json")
    _, second = run(capsys, "verify", "--suite", "characters", "--n", "3", "--r", "2", "--json")
    assert first == second
    _, d1 = run(capsys, "dims", "--n", "3", "--r", "2", "--seed", "4", "--json")
    _, d2 = run(capsys, "dims", "--n", "3", "--r", "2", "--seed", "4", "--json")
    assert d1 == d2


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["character", "--n", "3"])  # missing --r
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--plate", "[[{1}_1 {2}_0]]"])  # zero position
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus", "--n", "2"])
    assert exc.value.code == 2


def test_non_character_exits_1(capsys, monkeypatch):
    import plates.cli
    from plates.characters import ClassFunction

    half = ClassFunction.from_dict(2, {(1, 1): 1, (2,): 0})  # <chi, trivial> = 1/2
    monkeypatch.setattr(plates.cli, "character", lambda engine, n, r: half)
    code = main(["multiplicities", "--n", "2", "--r", "2", "--json"])
    assert code == 1
    assert "not a character" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["character", "multiplicities"])
@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("n, r", [(0, 2), (2, 0)])
def test_empty_group_or_slice_exits_2_for_every_engine(capsys, command, engine, n, r):
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", str(n), "--r", str(r), "--engine", engine, "--json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"need n >= 1 and r >= 1, got n={n}, r={r}" in captured.err


def test_failed_dimension_audit_exits_1(capsys, monkeypatch):
    import plates.cli
    from plates.characters import mn_character

    # a genuine character (the trivial one) whose dimension 1 is not r^(n-1) = 2
    monkeypatch.setattr(plates.cli, "character", lambda engine, n, r: mn_character((2,)))
    code, payload = run_json(capsys, "multiplicities", "--n", "2", "--r", "2")
    assert code == 1
    assert payload["multiplicities"] == {"2": 1}
    assert payload["dimension_audit"] is False
    code, out = run(capsys, "multiplicities", "--n", "2", "--r", "2")
    assert code == 1
    assert out.splitlines()[-1] == "dimension audit: False"


def test_failed_module_identity_exits_1(capsys, monkeypatch):
    wrong_count_at(monkeypatch, (7,), 13)
    code, payload = run_json(capsys, "verify", "--suite", "worpitzky", "--n", "7", "--r", "2")
    assert code == 1 and payload["ok"] is False
    classical, module = payload["checks"]
    assert classical == {"suite": "worpitzky", "check": "classical identity r<=14", "ok": True}
    assert module["ok"] is False
    assert module["details"] == {"failures": ["residual at r=13, class (7,)"]}


def test_worpitzky_suite_runs_the_classical_check_once_per_r(capsys, monkeypatch):
    import plates.cli
    import plates.worpitzky

    calls = []

    def check(n, r):
        calls.append(r)
        return r != 3 or not failing

    for module in (plates.cli, plates.worpitzky):
        monkeypatch.setattr(module, "classical_worpitzky_check", check)
    failing = False
    assert run(capsys, "verify", "--suite", "worpitzky", "--n", "3", "--rmax", "5")[0] == 0
    assert calls == [1, 2, 3, 4, 5]
    failing = True
    code, payload = run_json(capsys, "verify", "--suite", "worpitzky", "--n", "3", "--rmax", "5")
    assert code == 1
    classical, module = payload["checks"]
    assert classical["details"] == {"failing_r": [3]}
    assert module["details"] == {"failures": ["classical identity fails at r=3"]}


def test_expand_at_n6_r2_walks_on_to_the_next_prime(capsys):
    # the default D = 7 lattice reaches only rank 12 of 32; the solve moves
    # on to D = 11 as dims does, instead of failing
    code, payload = run_json(
        capsys, "expand", "--plate", "[[{2}_1 {1,3,4,5,6}_1]]", "--method", "both"
    )
    assert code == 0
    assert payload["engines_agree"] is True


def test_verify_relations_at_n6_r2(capsys):
    code, payload = run_json(capsys, "verify", "--suite", "relations", "--n", "6", "--r", "2")
    assert code == 0
    assert payload["ok"] is True and len(payload["checks"]) == 63


def test_verify_cyclic_sum_at_n10_r2(capsys):
    # generic points are rare at the default D = 11; the seeded descent of
    # the lattice finds them without a retry cap
    code, payload = run_json(capsys, "verify", "--suite", "cyclic-sum", "--n", "10", "--r", "2")
    assert code == 0
    assert payload["ok"] is True


@pytest.mark.parametrize("error", ["SpanError"])
def test_oracle_failures_exit_1(capsys, monkeypatch, error):
    import plates.cli
    from plates import oracle

    def fail(*args):
        raise getattr(oracle, error)("the oracle could not fit")

    monkeypatch.setattr(plates.cli, "oracle_expand", fail)
    code = main(["expand", "--plate", "[[{2}_1 {1}_1]]", "--method", "oracle", "--json"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the oracle could not fit\n"


def test_pinned_denominator_too_small_for_a_solve_exits_1(capsys):
    code = main(["expand", "--plate", "[[{2}_1 {1,3,4,5,6}_1]]", "--method", "oracle", "--denominator", "7"])
    assert code == 1
    assert "rank 12 < 32" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--suite", "all", "--n", "1", "--r", "1"], "need n >= 2 and r_max >= n"),
        (["verify", "--suite", "worpitzky", "--n", "2", "--rmax", "1"], "need n >= 2 and r_max >= n"),
        (["verify", "--suite", "all", "--n", "4", "--rmax", "3"], "need n >= 2 and r_max >= n"),
        (["eulerian", "--rows", "-1"], "need rows >= 0, got rows=-1"),
    ],
)
def test_bad_sizes_exit_2_before_any_check_runs(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_suites_without_worpitzky_run_at_n1(capsys):
    code, payload = run_json(capsys, "verify", "--suite", "relations", "--n", "1", "--r", "1")
    assert code == 0 and payload["ok"] is True
    code, out = run(capsys, "eulerian", "--rows", "0")
    assert (code, out) == (0, "")


def test_handlers_return_payload_lines_and_ok(capsys):
    from plates.cli import COMMANDS, build_parser

    args = build_parser().parse_args(["dims", "--n", "6", "--r", "2", "--denominator", "7"])
    payload, lines, ok = COMMANDS["dims"][0](args)
    assert capsys.readouterr().out == ""
    assert (payload["rank"], ok) == (12, False)
    assert lines[-1] == "match: False"
