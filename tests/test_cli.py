import dataclasses
import json
import tracemalloc

import pytest

from qpigeon import amplitudes, cli
from qpigeon.circuits import histogram_json, sample_shots, simulate_ideal
from qpigeon.gates import export_qasm, pair_check_circuit


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_identities_json(capsys):
    code, out = run_cli(capsys, "identities", "--tolerance", "1e-12")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["tolerance"] == 1e-12
    assert max(payload["checks"].values()) <= 1e-12


def test_identities_csv(capsys):
    code, out = run_cli(capsys, "identities", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "check,max_deviation,passed"
    assert all(line.endswith(",true") for line in lines[1:])


def test_amplitudes_sweep_row_count(capsys):
    code, out = run_cli(capsys, "amplitudes", "--epsilon-t", "0:6.2832:65", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 65 * 8
    assert lines[0] == "epsilon_t,label,outcome_class,prob_closed,prob_numeric"
    # per-sweep-point sums stay at 1
    sums = {}
    for line in lines[1:]:
        et, _, _, _, prob = line.split(",")
        sums[et] = sums.get(et, 0.0) + float(prob)
    assert len(sums) == 65
    assert all(abs(total - 1.0) <= 1e-11 for total in sums.values())


def test_amplitudes_single_value_json(capsys):
    code, out = run_cli(capsys, "amplitudes", "--epsilon-t", "0.7853981633974483", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert "phase_convention" in payload
    records = payload["records"]
    assert len(records) == 8
    for rec in records:
        expected = 0.3125 if rec["outcome_class"] == "ALL_SAME_SIGN" else 0.0625
        assert rec["prob_closed"] == pytest.approx(expected, abs=1e-10)


def test_amplitudes_rejects_malformed_sweep(capsys):
    assert len(cli._parse_sweep(f"0:1:{cli.MAX_SWEEP_STEPS}")) == cli.MAX_SWEEP_STEPS
    malformed = "expected VALUE or START:STOP:STEPS"
    too_long = f"a sweep takes at most {cli.MAX_SWEEP_STEPS} steps"
    for sweep, reason in (
        ("0:1", malformed),
        ("0:1:0", malformed),
        ("x:1:3", malformed),
        (f"0:1:{cli.MAX_SWEEP_STEPS + 1}", too_long),
        ("0:1:100000000000", too_long),
        # both endpoints are finite, but stop - start overflows
        ("-1e308:1e308:3", "has no finite spacing"),
    ):
        with pytest.raises(SystemExit) as err:
            cli.main(["amplitudes", "--epsilon-t", sweep])
        assert err.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert reason in message and repr(sweep) in message


def test_amplitudes_one_step_sweep_is_its_start(capsys):
    code, out = run_cli(capsys, "amplitudes", "--epsilon-t", "0.5:9:1", "--format", "csv")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 8
    assert {row.split(",")[0] for row in rows} == {"0.5"}


def test_amplitudes_csv_sweep_holds_only_its_text(capsys):
    # 2,000 steps print 1.0 MiB of CSV; with every row tuple and the JSON
    # records built as well the peak read 10.1 MiB, with the CSV joined into
    # one text 3.1-3.4, with one line written per row as it is made 1.2-1.5
    run_cli(capsys, "amplitudes", "--epsilon-t", "0:1:2", "--format", "csv")
    tracemalloc.start()
    try:
        code = cli.main(["amplitudes", "--epsilon-t", "0:6.2832:2000", "--format", "csv"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out.count("\n") == 1 + 8 * 2000
    assert peak < 2 * 2**20, peak / 2**20


def test_amplitudes_json_sweep_is_written_as_it_is_encoded(capsys):
    # 2,000 steps print 2.9 MiB of JSON; joined into one text before writing
    # the peak read 26.5 MiB, written piece by piece from a rounded copy of
    # the records 11.5-11.9, with each float rounded as it is encoded 7.5-7.8
    run_cli(capsys, "amplitudes", "--epsilon-t", "0:1:2", "--format", "json")
    tracemalloc.start()
    try:
        code = cli.main(["amplitudes", "--epsilon-t", "0:6.2832:2000", "--format", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)["records"]) == 8 * 2000
    assert peak < 9.5 * 2**20, peak / 2**20


def test_simulate_pair_check(capsys):
    code, out = run_cli(capsys, "simulate", "--circuit", "pi", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "bitstring,probability"
    assert len(lines) == 9
    assert all(line.endswith(",0.125") for line in lines[1:])


def test_simulate_grouped(capsys):
    code, out = run_cli(capsys, "simulate", "--circuit", "p", "--group", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "pigeon_state,ancilla_pattern,probability"
    assert len(lines) == 1 + 32


def test_sample_matches_library_and_is_deterministic(capsys):
    code, first = run_cli(capsys, "sample", "--circuit", "pi", "--shots", "8192", "--seed", "42")
    assert code == 0
    code, second = run_cli(capsys, "sample", "--circuit", "pi", "--shots", "8192", "--seed", "42")
    assert code == 0
    assert first == second
    assert first == histogram_json(sample_shots(pair_check_circuit(), 8192, seed=42))
    payload = json.loads(first)
    assert payload["seed"] == 42
    support = set(simulate_ideal(pair_check_circuit()))
    assert set(payload["counts"]) <= support


def test_sample_group_csv(capsys):
    code, out = run_cli(
        capsys, "sample", "--circuit", "pi", "--shots", "800", "--seed", "1",
        "--group", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "pigeon_state,ancilla_pattern,count,expected_probability"
    assert sum(int(line.split(",")[2]) for line in lines[1:]) == 800


def test_sample_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "42")
    code, from_env = run_cli(capsys, "sample", "--circuit", "pi", "--shots", "100")
    assert code == 0
    monkeypatch.delenv(cli.SEED_ENV_VAR)
    code, explicit = run_cli(capsys, "sample", "--circuit", "pi", "--shots", "100", "--seed", "42")
    assert from_env == explicit
    code, default = run_cli(capsys, "sample", "--circuit", "pi", "--shots", "100")
    assert json.loads(default)["seed"] == 0


def test_sample_malformed_seed_env_exits_2_with_one_line(capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "abc")
    code = cli.main(["sample", "--circuit", "pi", "--shots", "100"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {cli.SEED_ENV_VAR} must be an integer, got 'abc'\n"


def test_sample_with_noise_flag(capsys):
    code, out = run_cli(
        capsys, "sample", "--circuit", "pi", "--shots", "4096", "--seed", "42",
        "--noise-readout", "0.05",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["noise"] == {"readout_flip_prob": 0.05}
    support = set(simulate_ideal(pair_check_circuit()))
    assert any(key not in support for key in payload["counts"])


def test_sample_invalid_noise_exits_with_usage_error(capsys):
    code = cli.main(["sample", "--circuit", "pi", "--shots", "10", "--noise-readout", "1.5"])
    assert code == 2


def test_qasm_matches_library(capsys):
    code, out = run_cli(capsys, "qasm", "--circuit", "p")
    assert code == 0
    assert out == export_qasm_all_same()


def export_qasm_all_same():
    from qpigeon.gates import all_same_check_circuit

    return export_qasm(all_same_check_circuit())


def test_hiddenvars_json(capsys):
    code, out = run_cli(capsys, "hiddenvars")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["valid"]) == 4
    assert payload["violation_exists"] is False


def test_hiddenvars_csv(capsys):
    code, out = run_cli(capsys, "hiddenvars", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 17
    assert sum(1 for line in lines[1:] if line.endswith(",true")) == 4


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "hist.json"
    code = cli.main([
        "sample", "--circuit", "pi", "--shots", "64", "--seed", "7",
        "--output", str(target),
    ])
    assert code == 0
    assert capsys.readouterr().out == ""
    on_disk = target.read_text()
    assert on_disk == histogram_json(sample_shots(pair_check_circuit(), 64, seed=7))
    assert [p.name for p in tmp_path.iterdir()] == ["hist.json"]


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 2


def test_unknown_circuit_exits_2():
    with pytest.raises(SystemExit) as err:
        cli.main(["simulate", "--circuit", "q"])
    assert err.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        cli.main(["sample", "--circuit", "pi"])
    assert err.value.code == 2


def test_unwritable_output_exits_2_with_one_line(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code = cli.main(["sample", "--circuit", "p", "--shots", "8", "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: cannot write {target}: No such file or directory\n"


def test_output_onto_a_directory_exits_2_and_leaves_no_temp_file(tmp_path, capsys):
    target = tmp_path / "out"
    target.mkdir()
    code = cli.main(["identities", "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: cannot write {target}: Is a directory\n"
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []


@pytest.mark.parametrize("argv", [
    pytest.param(["amplitudes", "--epsilon-t", "nan"], id="nan"),
    pytest.param(["amplitudes", "--epsilon-t", "inf"], id="inf"),
    # finite, but 3 * epsilon_t overflows
    pytest.param(["amplitudes", "--epsilon-t", "1e308"], id="overflow"),
    pytest.param(["identities", "--tolerance", "nan"], id="identities-nan"),
    pytest.param(["identities", "--tolerance", "inf"], id="identities-inf"),
])
def test_amplitudes_non_finite_coupling_exits_2_with_one_line(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    # the message names the option and the value it got
    assert argv[1].lstrip("-").replace("-", "_") in captured.err
    assert repr(float(argv[2])) in captured.err


@pytest.mark.parametrize("destination", ["stdout", "file"])
@pytest.mark.parametrize("text_format", ["csv", "json"])
@pytest.mark.parametrize("sweep", [
    pytest.param("nan", id="first"),
    # 3 * epsilon_t overflows only at the last point
    pytest.param("0:1e308:3", id="third"),
    pytest.param("0:6e307:4", id="fourth"),
])
def test_a_refused_coupling_writes_no_part_of_a_document(capsys, tmp_path, sweep, text_format, destination):
    target = tmp_path / f"out.{text_format}"
    argv = ["amplitudes", "--epsilon-t", sweep, "--format", text_format]
    code = cli.main(argv + (["--output", str(target)] if destination == "file" else []))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "epsilon_t" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_amplitudes_closed_form_mismatch_exits_1_with_every_row(capsys, monkeypatch):
    exact = amplitudes.closed_form_probability
    monkeypatch.setattr(amplitudes, "closed_form_probability", lambda label, et: exact(label, et) + 1e-9)
    code = cli.main(["amplitudes", "--epsilon-t", "0.5"])
    captured = capsys.readouterr()
    assert code == 1
    assert len(captured.out.strip().split("\n")) == 1 + 8
    assert captured.err == ""


def test_amplitudes_probability_sum_mismatch_exits_1_with_every_row(capsys, monkeypatch):
    exact = amplitudes.amplitude_table

    def inflated(et):
        # closed and numeric agree, so only the sum check can fail
        return [dataclasses.replace(rec, prob_closed=rec.prob_numeric * 1.001, prob_numeric=rec.prob_numeric * 1.001)
                for rec in exact(et)]

    monkeypatch.setattr(amplitudes, "amplitude_table", inflated)
    code = cli.main(["amplitudes", "--epsilon-t", "0.5"])
    captured = capsys.readouterr()
    assert code == 1
    assert len(captured.out.strip().split("\n")) == 1 + 8
    assert captured.err == ""


@pytest.mark.parametrize("argv", [
    pytest.param(["amplitudes", "--epsilon-t", "-1:1:3"], id="sweep"),
    pytest.param(["amplitudes", "--epsilon-t", "-1e-3"], id="exponent"),
    pytest.param(["amplitudes", "--epsilon-t", "-.5"], id="no-leading-digit"),
    pytest.param(["sample", "--circuit", "p", "--shots", "8", "--noise-readout", "-1e-3"], id="noise"),
    pytest.param(["identities", "--tolerance", "-1e-12"], id="tolerance"),
])
def test_a_negative_value_after_its_option_reads_as_with_equals(capsys, argv):
    def outcome(args):
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
    assert outcome(argv) == outcome(joined)
