"""The shift harness on a small case set: a record compared with itself
reports nothing moved, and a moved answer, a verdict flip and a changed CLI
report each show."""

import copy
import json

import pytest

import answer_shift


@pytest.fixture(scope="module")
def small_record():
    return answer_shift.record(answer_shift.SMALL)


def _rows(lines):
    return {line.split()[0]: line.split()[1:] for line in lines}


def test_a_record_matches_itself(small_record, tmp_path, capsys):
    n_windows, n_states, seeds = answer_shift.SMALL
    path = tmp_path / "a.json"
    path.write_text(json.dumps(small_record))
    assert answer_shift.main(["--compare", str(path), str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = _rows(lines)
    producers = len(answer_shift.WINDOW_PRODUCERS) + len(answer_shift.GRID_PRODUCERS)
    assert len(rows) == 1 + producers + 1  # the header and the CLI line
    for name in answer_shift.WINDOW_PRODUCERS:
        assert rows[f"windows/{name}"] == [str(n_windows), str(n_windows), "0", "0"]
    for name in answer_shift.GRID_PRODUCERS:
        assert rows[f"grid/{name}"] == [str(2 * n_states), str(2 * n_states), "0", "0"]
    n_cli = len(seeds) * len(answer_shift.CLI_KINDS) * answer_shift.CLI_VARIANTS
    assert lines[-1] == f"cli requests: {n_cli}, identical: {n_cli}"


def test_moves_flips_and_cli_bytes_show(small_record):
    moved = copy.deepcopy(small_record)
    answers = moved["answers"]
    cc = answers["grid/brute_peak_current_cc"]
    cc[0] = [cc[0][0] + 2.5e-10]
    answers["grid/brute_peak_power_cp"][1] = {"refused": "InfeasibleStateError"}
    moved["cli"]["seed1/simulate/2"]["stdout"] += "\n"
    lines, anything = answer_shift.compare(small_record, moved)
    assert anything
    rows = _rows(lines)
    assert rows["grid/brute_peak_current_cc"][1:] == [str(len(cc) - 1), "0", "2.5e-10"]
    assert rows["grid/brute_peak_power_cp"][2] == "1"
    assert rows["windows/sop_cv"][0] == rows["windows/sop_cv"][1]
    assert "  differs: seed1/simulate/2" in lines
