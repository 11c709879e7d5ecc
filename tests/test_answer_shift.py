"""The shift harness on a small case set: a record compared with itself
reports nothing moved, a moved answer, a verdict flip and a changed CLI
report each show, and a changed simulation count (its mean or its largest),
table-search, step, refusal or rows count shows without counting as a move."""

import copy
import json

import pytest

import answer_shift


@pytest.fixture(scope="module")
def small_record():
    return answer_shift.record(answer_shift.SMALL)


STEPWISE = {"sop_cv", "sop_cccv", "sop_cp", "brute_peak_current_cc", "brute_peak_power_cp"}
TRACED = {"sop_cv", "sop_cccv", "sop_cp"}  # the engines that return their rows


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
    for cases, n, producers in (
        ("windows", n_windows, answer_shift.WINDOW_PRODUCERS),
        ("grid", 2 * n_states, answer_shift.GRID_PRODUCERS),
    ):
        for name in producers:
            row = rows[f"{cases}/{name}"]
            assert row[:4] == [str(n), str(n), "0", "0"]
            sims_a, sims_b, max_a, max_b, searches_a, searches_b, steps_a, steps_b = row[4:12]
            refused_a, refused_b, rows_a, rows_b = row[12:]
            assert (sims_a, max_a) == (sims_b, max_b)
            assert (sims_a == "-") == (max_a == "-") == (name not in answer_shift.PROBES)
            assert max_a == "-" or int(max_a) >= float(sims_a)
            # Every producer reads the OCV table.
            assert searches_a == searches_b and float(searches_a) > 0
            # The stepwise engines and the oracles simulate windows; only the
            # CP probes abandon one, at a step with no current toward the power.
            assert (steps_a, refused_a) == (steps_b, refused_b)
            assert (float(steps_a) > 0) == (name in STEPWISE)
            assert float(refused_a) == 0 or name in {"sop_cp", "brute_peak_power_cp"}
            # Only the engines that return a trace step a window with rows.
            assert rows_a == rows_b
            assert (float(rows_a) > 0) == (name in TRACED)
    n_cli = len(seeds) * len(answer_shift.CLI_KINDS) * answer_shift.CLI_VARIANTS
    n_cli += len(answer_shift.BAD_INPUTS)
    assert lines[-1] == f"cli requests: {n_cli}, identical: {n_cli}"
    assert small_record["cli"]["bad/ocv_header_only"]["code"] == 2


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
    assert rows["grid/brute_peak_current_cc"][1:4] == [str(len(cc) - 1), "0", "2.5e-10"]
    assert rows["grid/brute_peak_power_cp"][2] == "1"
    assert rows["windows/sop_cv"][0] == rows["windows/sop_cv"][1]
    assert "  differs: seed1/simulate/2" in lines


def test_simulation_counts_show_without_moving(small_record):
    counted = copy.deepcopy(small_record)
    probes = counted["probes"]["windows/sop_cp"]
    probes[0] += len(probes)  # the mean rises by exactly 1
    largest = max(counted["probes"]["grid/brute_peak_current_cc"])
    counted["probes"]["grid/brute_peak_current_cc"][-1] = largest + 5  # the largest rises by 5
    searches = counted["searches"]["grid/sop_cc"]
    searches[0] += 2 * len(searches)  # the mean rises by exactly 2
    steps = counted["steps"]["grid/sop_cp"]
    steps[0] -= 3 * len(steps)  # the mean falls by exactly 3
    refused = counted["refused"]["windows/brute_peak_power_cp"]
    refused[0] += len(refused)  # the mean rises by exactly 1
    with_rows = counted["rows"]["grid/sop_cp"]
    with_rows[0] -= len(with_rows)  # the mean falls by exactly 1
    lines, anything = answer_shift.compare(small_record, counted)
    assert not anything
    rows = _rows(lines)
    sims_a, sims_b = rows["windows/sop_cp"][4:6]
    assert float(sims_b) - float(sims_a) == pytest.approx(1.0, abs=2e-3)
    max_a, max_b = rows["grid/brute_peak_current_cc"][6:8]
    assert (int(max_a), int(max_b)) == (largest, largest + 5)
    searches_a, searches_b = rows["grid/sop_cc"][8:10]
    assert float(searches_b) - float(searches_a) == pytest.approx(2.0, abs=2e-3)
    steps_a, steps_b = rows["grid/sop_cp"][10:12]
    assert float(steps_a) - float(steps_b) == pytest.approx(3.0, abs=2e-3)
    refused_a, refused_b = rows["windows/brute_peak_power_cp"][12:14]
    assert float(refused_b) - float(refused_a) == pytest.approx(1.0, abs=2e-3)
    rows_a, rows_b = rows["grid/sop_cp"][14:]
    assert float(rows_a) - float(rows_b) == pytest.approx(1.0, abs=2e-3)
    # A record from before the searches and steps were counted compares, without them.
    del counted["searches"], counted["steps"], counted["refused"], counted["rows"]
    lines, anything = answer_shift.compare(small_record, counted)
    assert not anything
    rows = _rows(lines)
    assert rows["grid/sop_cc"][9] == rows["grid/sop_cp"][11] == rows["grid/sop_cp"][13] == "-"
    assert rows["grid/sop_cp"][15] == "-"
