"""Smoke test: the demo scripts run to completion."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def src_on_path(monkeypatch):
    """Each script runs in a child process that imports cclab from src."""
    monkeypatch.setenv("PYTHONPATH", os.path.join(ROOT, "src"))


@pytest.mark.parametrize("script", ["a2_audit.py", "flagship_d4tilde.py",
                                    "kronecker_strata.py"])
def test_demo_script_runs(script):
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script)],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_digest_script_covers_a2():
    """On A2 the digest has one line per call, each with its exit code and
    its output: five calls on each ordered pair of S1, S2 and P1, then `cc`
    with and without --primes, the mutation oracle and the malformed
    inputs."""
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "digest.py"),
         "--quivers", "a2"], capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    lines = dict(line.split(": ", 1) for line in result.stdout.splitlines())
    pairs = [k for k in lines
             if k.startswith(("a2 cc ", "a2 grass ", "a2 verify "))]
    assert len(pairs) == 5 * 3 * 3
    assert lines["a2 verify xx2 S1 S1"] == (
        "1 error: first argument must be a nonzero projective")
    code, payload = lines["a2 verify xx1 S2 S1"].split(" ", 1)
    assert code == "0" and json.loads(payload)["verdict"] is True
    assert lines["a2 grass S2 S2"].startswith("0 [")
    code, payload = lines["a2 primes flag P1"].split(" ", 1)
    assert json.loads(payload)["primes"] == [29, 31, 37, 41, 43, 47, 53, 59]
    assert lines["a2 list-variables --depth 0"].endswith(
        '"stabilized": false}')
    assert lines["a2 compare --depth 0"].startswith("4 ")
    bad = [v for k, v in lines.items() if k.startswith("a2 bad ")]
    assert bad and all(v.startswith("1 error: ") for v in bad)


def test_digest_matches_golden():
    """The whole digest equals tests/golden_digest.txt byte for byte, so
    that no command's answer on the stock modules changes unnoticed.  After
    a change that is meant to alter an answer, regenerate the file with
    `PYTHONPATH=src python scripts/digest.py > tests/golden_digest.txt`
    and review its diff."""
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "digest.py")],
        capture_output=True, timeout=300)
    assert result.returncode == 0, result.stderr.decode()
    golden = pathlib.Path(ROOT, "tests", "golden_digest.txt").read_bytes()
    assert result.stdout == golden


def test_bench_script_writes_counts(tmp_path):
    out = tmp_path / "bench.json"
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "bench.py"),
         "--repeats", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    doc = json.loads(out.read_text())
    a5, kronecker, e6 = doc["closures"]
    assert (a5["seeds"], a5["divisions"], a5["variables"]) == (132, 70, 20)
    assert (kronecker["seeds"], kronecker["divisions"]) == (49, 48)
    # 42 of its divisions go dense, and the product at -X accepts all but
    # two, which the norm test accepts; A5 and E6 divide only sparsely
    assert kronecker["dense_quotients"] == {"norm": 2, "minus_x": 40,
                                            "next_width": 0, "heap": 0}
    assert not any(a5["dense_quotients"].values())
    assert not any(e6["dense_quotients"].values())
    # E6 has 833 clusters and 42 cluster variables, all found by depth 12
    assert (e6["seeds"], e6["variables"], e6["stabilized"]) == (833, 42, True)
    assert e6["exchanges"] == 6 * 833
    assert [k["step"] for k in doc["kernels"]] == [4, 8, 12, 16, 20, 24, 32,
                                                   40]
    for row in doc["kernels"]:
        for op in (row["mul"], row["divide_exact"]):
            assert op["selected"] in ("dense", "sparse")
            assert op["dense"]["median_s"] > 0 and op["sparse"]["median_s"] > 0
    # the first width, at least half the full one, holds every exchange
    # quotient up to x_40 and its divmod passes the cost test, so each goes
    # dense, in word slots of 8 bytes at x_32 and x_40
    widths = [row["divide_exact"]["slot_bytes"] for row in doc["kernels"]]
    assert widths == [1, 2, 2, 4, 4, 4, 8, 8]
    assert all(row["divide_exact"]["selected"] == "dense"
               for row in doc["kernels"])
    # past the first width: certified at the full one, or left to the heap
    certified, left = doc["declined"]
    assert (certified["slot_bytes"], certified["selected"]) == ([12, 16],
                                                                "dense")
    assert (left["slot_bytes"], left["selected"]) == ([4], "sparse")
    assert certified["accepted"]["next_width"] == left["accepted"]["heap"] == 1
    assert all(sum(row["divide_exact"]["accepted"].values()) == 1
               for row in doc["kernels"])
    assert all(row["sparse"]["median_s"] > 0 for row in doc["declined"])
    assert doc["timer"].startswith("time.process_time")
    strat = doc["stratify"]
    points = sum(p * p + p + 1 for p in strat["primes"])
    ext, hom = strat["ext"], strat["hom"]
    assert hom["points"] == points
    # p + 1 points of each P^2(F_p) move a vertex kernel off its pencil's
    # common kernel, and one more point is keyed for all the others
    jumps = sum(p + 1 for p in strat["primes"])
    assert hom["keyed"] == jumps + len(strat["primes"])
    # one vertex kernel is taken at each point of N, where the vertex-2
    # pencil of g jumps, and none at the point keyed for the others
    assert hom["point_kernels"] == jumps
    assert jumps <= hom["incidence"] <= 2 * jumps
    assert hom["kernels"] > 0
    assert ext["us_per_pair"] > 0 and hom["us_per_point"] > 0
    assert 0 < hom["memo_misses"] * 10 < points
    # over F_p, P1 = (1, 2) has the subrepresentations 0, the p + 1 lines
    # at vertex 2, (0, 2) and P1; S1 has 0 and S1
    subs_p1 = sum(p + 4 for p in strat["primes"])
    assert ext["subreps_L"] == subs_p1
    assert ext["subreps_M"] == 2 * len(strat["primes"])
    assert ext["pairs"] == 2 * subs_p1
    d4 = doc["d4"]
    assert d4["name"] == "kronecker.xx1(P1,I2)"
    points = sum(p ** 3 + p * p + p + 1 for p in d4["primes"])
    row = d4["hom"]
    assert row["points"] == points
    assert row["keyed"] == jumps + len(d4["primes"])
    assert jumps <= row["incidence"] <= 2 * jumps
    assert row["median_s"] > 0
    # I2 = (2, 1) has 0, (0, 1), the p + 1 lines at vertex 1 with vertex 2,
    # and I2, as many as P1
    row = d4["ext"]
    assert row["subreps_L"] == row["subreps_M"] == subs_p1
    assert row["pairs"] == sum((p + 4) ** 2 for p in d4["primes"])
    assert row["median_s"] > 0 and row["us_per_pair"] > 0
    misses = doc["misses"]
    assert misses["points"] == sum(p + 1 for p in misses["primes"])
    # every vertex map is injective: one point is keyed for all, and the
    # p + 1 cokernels of each prime share tau^{-1} C: one miss a prime
    assert misses["keyed"] == len(misses["primes"])
    assert misses["memo_misses"] == len(misses["primes"])
    assert misses["us_per_point"] > 0
    d4tilde = doc["d4tilde"]
    assert d4tilde["name"] == "d4t.xx1(P1,I5)"
    row = d4tilde["hom"]
    assert row["points"] == sum(p + 1 for p in d4tilde["primes"])
    # 3 points of each P^1(F_p) move a vertex kernel, and one more stands
    # for the rest; each of the 4 is its own memo key
    assert row["keyed"] == row["memo_misses"] == 4 * len(d4tilde["primes"])
    assert row["median_s"] > 0 and d4tilde["ext"]["median_s"] > 0
    grass = {row["name"]: row for row in doc["grass"]}
    assert list(grass) == ["d4t.E1+E1", "a3.I13+I13", "kronecker.P1+I2"]
    # E1+E1 and I13+I13 are rigid, so their bound is <e, d - e>, negative
    # at 13 and at 15 of their 27 e; P1 + I2 has dim Ext^1 = 4 and skips
    # 3 of its 16 e
    assert [(row["ext1"], row["skipped_e"]) for row in grass.values()] == [
        (0, 13), (0, 15), (4, 3)]
    for row in grass.values():
        # one count per prime and e <= dim M that the bound keeps
        n_e = 1
        for d in row["dim"]:
            n_e *= d + 1
        assert row["count_subreps_calls"] == (
            (n_e - row["skipped_e"]) * len(row["primes"]))
        assert 0 < row["cover_tuples"] < row["brute_force_tuples"]
        # the vertex tables share the subspace tables of each (p, d, k)
        assert (0 < row["subspace_table_misses"]
                < row["vertex_table_builds"])
        assert row["median_s"] > 0
    tau = {row["name"]: row for row in doc["tau"]}
    assert tau["kronecker.S1"]["tau_dim"] == [3, 2]
    assert tau["kronecker.R(1,1)"]["inverse_dim"] == [1, 1]
    assert tau["d4t.E1"]["tau_dim"] == tau["d4t.E1"]["inverse_dim"] == [
        0, 0, 1, 1, 1]
    assert all(row["us_per_ar_translate"] > 0 and row["us_per_ar_inverse"] > 0
               for row in doc["tau"])
    src = pathlib.Path(ROOT, "src", "cclab")
    assert doc["src_lines"] == sum(len(path.read_text().splitlines())
                                   for path in src.glob("*.py"))
