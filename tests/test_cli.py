import json

import pytest

from plates.cli import main


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
