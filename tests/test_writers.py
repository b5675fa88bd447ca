"""The scenario and trace writers against the encoders they replace.

``save_scenario`` must write the bytes of ``json.dumps(scenario_to_dict(s),
indent=2)``, and the trace.csv writer (``TraceCsv``) those of ``csv.writer``
given ``repr`` of each number and the state names. Both old encoders live here only, as byte
oracles.
"""

import csv
import io
import json
import math
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duplink import (
    POLICY_NAMES,
    BackhaulState,
    GenParams,
    build_matrices,
    generate,
    generate_mixed,
    save_scenario,
    worked_example,
)
from duplink.engine import TraceCsv
from duplink.network import Gains, scenario_to_dict
from duplink.scenarios import LIMITED_BACKHAUL

from conftest import run_collecting, write_trace_csv

CASES = {
    "worked_high": lambda: worked_example(),
    "worked_limited": lambda: worked_example(LIMITED_BACKHAUL),
    "gen21": lambda: generate(GenParams(n_ues=21, seed=7)),
    "mixed6+3": lambda: generate_mixed(GenParams(n_ues=6, seed=7), 3),
    "fixed0+5": lambda: generate_mixed(GenParams(n_ues=0, n_relays=2, n_picos=2, seed=3), 5),
    "empty0": lambda: generate(GenParams(n_ues=0, seed=3)),  # G = 0, no UE columns
}


def json_oracle(s) -> bytes:
    return json.dumps(scenario_to_dict(s), indent=2).encode()


def csv_oracle(iterates, m) -> bytes:
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    header = ["k"]
    for ue in m.ue_id.tolist():
        header += [f"p1_{ue}", f"p2_{ue}", f"rate1_{ue}", f"rate2_{ue}", f"state_{ue}"]
    writer.writerow(header + ["eta_n"])
    names = [""] + [state.name for state in BackhaulState]
    for k, (st_, rep) in enumerate(iterates):
        row: list = [k]
        for p1, p2, r1, r2, code in zip(st_.p1.tolist(), st_.p2.tolist(), st_.rate1.tolist(),
                                        st_.rate2.tolist(), rep.state.tolist()):
            row += [repr(p1), repr(p2), repr(r1), repr(r2), names[code]]
        writer.writerow(row + [repr(rep.eta_n)])
    return fh.getvalue().encode()


def non_finite():
    """json's own spellings for NaN and infinities, and a meta key that reads
    like the spliced one."""
    s = worked_example()
    values = s.gains.values.copy()
    values[:3] = [math.nan, math.inf, -math.inf]
    return replace(s, gains=Gains(s.gains.keys, values),
                   poas=[replace(s.poas[0], backhaul_capacity=math.inf), *s.poas[1:]],
                   meta={"gains": [], 'x\n  "gains": []': {"gains": []}})


def assert_writers_match(s, tmp_path, policies=POLICY_NAMES, iters=(30,)):
    """Each run streams its trace.csv while it goes, as ``duplink run`` does.
    Returns the row counts written."""
    path = tmp_path / "scenario.json"
    save_scenario(s, path)
    assert path.read_bytes() == json_oracle(s)
    m = build_matrices(s)
    rows = set()
    for policy in policies:
        for max_iter in iters:
            with open(tmp_path / "trace.csv", "w", newline="") as fh:
                writer = TraceCsv(m, fh)
                _, iterates = run_collecting(m, policy, writer, max_iter=max_iter)
                writer.flush()
            assert (tmp_path / "trace.csv").read_bytes() == csv_oracle(iterates, m), policy
            rows.add(len(iterates))
    return rows


@pytest.mark.parametrize("name", CASES)
def test_writers_match_the_old_encoders(tmp_path, name):
    # Runs that stop at 15, 16, 17 and 33 iterations write 16, 17, 18 and 34
    # rows: one whole buffer of the writer's 16, and partial last buffers.
    # bdt on the limited worked example runs to max_iter.
    rows = assert_writers_match(CASES[name](), tmp_path, iters=(15, 16, 17, 30, 33))
    if name == "worked_limited":
        assert {16, 17, 18, 34} <= rows, rows


def test_empty_trace_has_no_ue_columns(tmp_path):
    m = build_matrices(CASES["empty0"]())
    write_trace_csv(m, run_collecting(m, "bdt")[1], tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes().startswith(b"k,eta_n\r\n0,")


def test_signed_zeros_and_non_finite_numbers_keep_their_repr(tmp_path):
    # The trace prints each distinct number once; -0.0 and 0.0 compare equal
    # but print differently.
    m = build_matrices(CASES["mixed6+3"]())
    _, iterates = run_collecting(m, "bdt", max_iter=5)
    first, last = iterates[0][0], iterates[-1][0]
    first.p2[-1], last.p2[-1] = -0.0, 0.0
    first.rate1[0], last.rate1[0], last.rate2[0] = math.nan, math.inf, -math.inf
    write_trace_csv(m, iterates, tmp_path / "trace.csv")
    text = (tmp_path / "trace.csv").read_bytes()
    assert text == csv_oracle(iterates, m)
    assert b",-0.0," in text and b",nan," in text and b",-inf," in text


def test_non_finite_gains_use_json_spellings(tmp_path):
    s = non_finite()
    save_scenario(s, tmp_path / "scenario.json")
    text = (tmp_path / "scenario.json").read_text()
    assert text.encode() == json_oracle(s)
    for word in ("NaN", "Infinity", "-Infinity"):
        assert f"      {word}\n" in text
    assert json.loads(text)["meta"] == s.meta


def test_failed_save_writes_nothing(tmp_path):
    # Keys cut to (G, 2) make the writer raise; the text is built before the
    # file is opened, so no partial file is left and an old one stays whole.
    s = CASES["mixed6+3"]()
    bad = replace(s, gains=Gains(s.gains.keys[:, :2], s.gains.values))
    path = tmp_path / "scenario.json"
    with pytest.raises(ValueError):
        save_scenario(bad, path)
    assert not path.exists()
    save_scenario(s, path)
    with pytest.raises(ValueError):
        save_scenario(bad, path)
    assert path.read_bytes() == json_oracle(s)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(n_ues=st.integers(0, 8), n_relays=st.integers(0, 3), n_picos=st.integers(1, 3),
       n_fixed=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_generated_files_match_the_old_encoders(tmp_path_factory, n_ues, n_relays, n_picos,
                                                n_fixed, seed):
    s = generate_mixed(GenParams(n_ues=n_ues, n_relays=n_relays, n_picos=n_picos, seed=seed),
                       n_fixed)
    assert_writers_match(s, tmp_path_factory.mktemp("w"), policies=("bdt",))


def test_writer_memory_does_not_grow_with_iterations(tmp_path):
    # 40 + 10 UEs under bdt run to max_iterations at 25 and at 200
    # iterations. The writer holds at most 16 iterates: its traced peak
    # stays below the size of the file it writes, and 8x the rows barely
    # move it.
    m = build_matrices(generate_mixed(GenParams(n_ues=40, n_relays=4, n_picos=6, seed=0), 10))
    peaks = []
    for iters in (25, 200):
        trace, iterates = run_collecting(m, "bdt", max_iter=iters)
        assert trace.verdict.kind == "max_iterations"
        path = tmp_path / f"trace{iters}.csv"
        tracemalloc.start()
        try:
            write_trace_csv(m, iterates, path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[-1] < path.stat().st_size, (iters, peaks[-1], path.stat().st_size)
    assert peaks[1] < 1.5 * peaks[0], peaks
    assert path.read_bytes() == csv_oracle(iterates, m)
